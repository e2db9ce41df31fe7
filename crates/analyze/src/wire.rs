//! Wire-lens renderings: per-channel send→recv latency tables from a
//! probed run's [`WireLog`](nbody_wireprobe::WireLog)-derived [`WireReport`], and the schedule
//! [`ConformanceReport`] table printed by `ca-nbody conformance` and
//! `analyze --wire`.

use nbody_wireprobe::{ConformanceReport, WireReport};

fn us(x: f64) -> String {
    format!("{:.1}", x * 1e6)
}

/// The channel-latency table printed by `ca-nbody analyze --wire`.
pub fn render_wire(r: &WireReport) -> String {
    let mut out = format!(
        "wire probes: {} sends, {} recvs, {} matched pairs on {} channels\n",
        r.total_sends,
        r.total_recvs,
        r.matched,
        r.channels.len()
    );
    if r.unmatched_sends + r.unmatched_recvs > 0 {
        out.push_str(&format!(
            "unmatched: {} sends, {} recvs\n",
            r.unmatched_sends, r.unmatched_recvs
        ));
    }
    if r.fault_events > 0 {
        out.push_str(&format!("injected-fault events: {}\n", r.fault_events));
    }
    if r.saturated() {
        out.push_str(&format!(
            "WARNING: probe rings overflowed; {} events evicted (log incomplete)\n",
            r.dropped_probe_events
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<14} {:<10} {:>6} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
        "channel",
        "phase",
        "tag",
        "sends",
        "bytes",
        "min us",
        "mean us",
        "p50 us",
        "p90 us",
        "max us",
        "depth"
    ));
    for ch in &r.channels {
        let lat = &ch.latency;
        let name = format!("{} -> {}", ch.src, ch.dst);
        out.push_str(&format!(
            "{:<14} {:<10} {:>6} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}\n",
            name,
            ch.phase.label(),
            ch.tag,
            ch.sends,
            ch.bytes,
            us(lat.min_s),
            us(lat.mean_s),
            us(lat.p50_s),
            us(lat.p90_s),
            us(lat.max_s),
            ch.max_in_flight
        ));
    }
    out
}

/// The conformance table: expected-vs-observed traffic, every violation
/// with its fault attribution, and the PASS/WARN/FAIL verdict.
pub fn render_conformance(r: &ConformanceReport) -> String {
    let mut out = format!("schedule conformance: {}\n", r.detail);
    out.push_str(&format!(
        "expected {} msgs, observed {} msgs on {} channels; \
         {} fault note(s) consulted\n",
        r.expected_msgs, r.observed_msgs, r.channels, r.faults_consulted
    ));
    if r.saturated {
        out.push_str(
            "WARNING: probe rings overflowed; the log is incomplete and \
             unexplained findings degrade to warnings\n",
        );
    }
    if r.violations.is_empty() {
        out.push_str("no violations\n");
    } else {
        out.push_str(&format!(
            "\n{:<14} {:<14} {:<10} {:>9} {:>9}  {}\n",
            "violation", "channel", "phase", "expected", "observed", "attribution"
        ));
        for v in &r.violations {
            let opt = |c: Option<u64>| c.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<14} {:<14} {:<10} {:>9} {:>9}  {}\n",
                v.kind.label(),
                format!("{} -> {}", v.src, v.dst),
                v.phase.label(),
                opt(v.expected_count),
                opt(v.observed_count),
                v.explained.as_deref().unwrap_or("UNEXPLAINED"),
            ));
        }
        out.push_str(&format!(
            "\n{} violation(s): {} explained by the fault plan, {} unexplained\n",
            r.violations.len(),
            r.explained(),
            r.unexplained()
        ));
    }
    out.push_str(&format!("verdict: {}\n", r.verdict()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_trace::Phase;
    use nbody_wireprobe::{
        check_conformance, match_events, ExpectedMsg, ExpectedSchedule, FaultNote, MsgEvent,
        ProbeKind, RankWireLog, WireLog,
    };

    fn ev(kind: ProbeKind, src: u32, dst: u32, t: f64) -> MsgEvent {
        MsgEvent {
            kind,
            src,
            dst,
            comm: 0,
            tag: 5,
            phase: Phase::Shift,
            count: 4,
            bytes: 224,
            t_secs: t,
            step: None,
        }
    }

    fn sample_log() -> WireLog {
        WireLog::from_ranks(vec![
            RankWireLog {
                rank: 0,
                events: vec![ev(ProbeKind::Send, 0, 1, 0.001)],
                dropped_events: 0,
            },
            RankWireLog {
                rank: 1,
                events: vec![ev(ProbeKind::Recv, 0, 1, 0.003)],
                dropped_events: 0,
            },
        ])
    }

    #[test]
    fn wire_table_lists_channels_with_latencies() {
        let text = render_wire(&match_events(&sample_log()));
        assert!(text.contains("1 matched pairs"), "{text}");
        assert!(text.contains("0 -> 1"), "{text}");
        assert!(text.contains("shift"), "{text}");
        assert!(text.contains("2000.0"), "2 ms latency in us: {text}");
        assert!(!text.contains("WARNING"), "{text}");
    }

    #[test]
    fn wire_table_warns_on_saturation_and_faults() {
        let log = WireLog::from_ranks(vec![RankWireLog {
            rank: 0,
            events: vec![ev(ProbeKind::FaultDrop, 0, 1, 0.001)],
            dropped_events: 7,
        }]);
        let text = render_wire(&match_events(&log));
        assert!(text.contains("7 events evicted"), "{text}");
        assert!(text.contains("injected-fault events: 1"), "{text}");
    }

    #[test]
    fn conformance_table_reports_pass() {
        let exp = ExpectedSchedule {
            msgs: vec![ExpectedMsg {
                src: 0,
                dst: 1,
                phase: Phase::Shift,
                count: 4,
            }],
            size_checked: true,
            detail: "test n=8 p=2".into(),
        };
        let text = render_conformance(&check_conformance(&exp, &sample_log(), &[]));
        assert!(text.contains("schedule conformance: test n=8 p=2"), "{text}");
        assert!(text.contains("no violations"), "{text}");
        assert!(text.contains("verdict: PASS"), "{text}");
    }

    #[test]
    fn conformance_table_marks_unexplained_and_attributed() {
        let exp = ExpectedSchedule {
            msgs: vec![
                ExpectedMsg {
                    src: 0,
                    dst: 1,
                    phase: Phase::Shift,
                    count: 4,
                },
                ExpectedMsg {
                    src: 2,
                    dst: 3,
                    phase: Phase::Shift,
                    count: 9,
                },
            ],
            size_checked: true,
            detail: "test".into(),
        };
        // Only the 0->1 message shows up: 2->3 is missing, unexplained.
        let text = render_conformance(&check_conformance(&exp, &sample_log(), &[]));
        assert!(text.contains("missing"), "{text}");
        assert!(text.contains("UNEXPLAINED"), "{text}");
        assert!(text.contains("verdict: FAIL"), "{text}");
        // With a drop fault at rank 2 the same finding is attributed.
        let faults = [FaultNote {
            kind: ProbeKind::FaultDrop,
            rank: 2,
            step: Some(0),
        }];
        let text = render_conformance(&check_conformance(&exp, &sample_log(), &faults));
        assert!(text.contains("fault_drop:rank2@step0"), "{text}");
        assert!(text.contains("1 explained by the fault plan, 0 unexplained"), "{text}");
        assert!(text.contains("verdict: PASS"), "{text}");
    }
}
