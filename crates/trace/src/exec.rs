//! Merged whole-execution traces and their exporters.
//!
//! An [`ExecutionTrace`] holds every rank's spans against the shared
//! epoch. It exports Chrome `trace_event` JSON (Perfetto-loadable),
//! JSON-lines, and the two shared CSV schemas, and computes the
//! per-phase/per-step statistical summaries printed by `ca-nbody report`.

use std::collections::BTreeMap;

use crate::json::{escape_into, num_into, Json};
use crate::phase::{Phase, ALL_PHASES, PHASE_COUNT};
use crate::schema;
use crate::span::{Span, SpanKind};

/// Distribution summary of one quantity across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistStat {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl DistStat {
    /// Summarize `samples` (sorted in place). Zeroes for an empty slice.
    pub fn from_samples(samples: &mut [f64]) -> DistStat {
        if samples.is_empty() {
            return DistStat {
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                max: 0.0,
            };
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let rank = |q: f64| samples[(((q * n as f64).ceil() as usize).max(1) - 1).min(n - 1)];
        DistStat {
            mean,
            p50: rank(0.50),
            p95: rank(0.95),
            max: samples[n - 1],
        }
    }
}

/// Per-phase summary of one execution: the distribution across ranks of
/// each rank's total seconds inside that phase's windows, plus mean
/// blocked seconds attributed to the phase.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Ranks in the execution.
    pub ranks: usize,
    /// Total traced wall time (latest span end), seconds.
    pub wall_secs: f64,
    /// One `(phase, across-rank distribution of per-rank seconds)` entry
    /// per phase, in figure order.
    pub phases: Vec<(Phase, DistStat)>,
    /// Mean per-rank blocked seconds attributed to each phase, in figure
    /// order.
    pub blocked: Vec<(Phase, f64)>,
}

impl PhaseBreakdown {
    /// Sum of per-phase mean seconds. Because phase windows tile each
    /// rank's timeline, this is within scheduler noise of
    /// [`wall_secs`](Self::wall_secs).
    pub fn phase_sum_secs(&self) -> f64 {
        self.phases.iter().map(|(_, d)| d.mean).sum()
    }
}

/// Per-timestep summary: for each driver section (`integrate`, `force`,
/// `reassign`, `step`), the distribution across ranks of that rank's total
/// seconds in the section during this step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Zero-based timestep index.
    pub step: u32,
    /// `(section name, across-rank distribution)` pairs, sorted by name.
    pub parts: Vec<(String, DistStat)>,
}

/// All ranks' spans for one execution, merged at join.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Number of ranks.
    pub ranks: usize,
    /// Every recorded span, grouped by rank in rank order.
    pub spans: Vec<Span>,
}

impl ExecutionTrace {
    /// Merge per-rank buffers (index = rank) into one trace.
    pub fn from_rank_buffers(buffers: Vec<Vec<Span>>) -> ExecutionTrace {
        let ranks = buffers.len();
        let spans = buffers.into_iter().flatten().collect();
        ExecutionTrace { ranks, spans }
    }

    /// Latest span end, in seconds since the epoch — the execution's
    /// traced wall time.
    pub fn wall_secs(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Per-rank total seconds inside each phase's windows:
    /// `result[rank][phase.index()]`.
    pub fn phase_secs_per_rank(&self) -> Vec<[f64; PHASE_COUNT]> {
        let mut acc = vec![[0.0f64; PHASE_COUNT]; self.ranks];
        for s in &self.spans {
            if let SpanKind::Phase(p) = s.kind {
                acc[s.rank as usize][p.index()] += s.secs();
            }
        }
        acc
    }

    /// The per-phase breakdown across ranks (the `ca-nbody report` table).
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        let per_rank = self.phase_secs_per_rank();
        let mut blocked_acc = [0.0f64; PHASE_COUNT];
        for s in &self.spans {
            if let SpanKind::Blocked { phase, .. } = s.kind {
                blocked_acc[phase.index()] += s.secs();
            }
        }
        let ranks = self.ranks.max(1);
        let phases = ALL_PHASES
            .into_iter()
            .map(|p| {
                let mut samples: Vec<f64> =
                    per_rank.iter().map(|row| row[p.index()]).collect();
                (p, DistStat::from_samples(&mut samples))
            })
            .collect();
        let blocked = ALL_PHASES
            .into_iter()
            .map(|p| (p, blocked_acc[p.index()] / ranks as f64))
            .collect();
        PhaseBreakdown {
            ranks: self.ranks,
            wall_secs: self.wall_secs(),
            phases,
            blocked,
        }
    }

    /// Per-timestep driver-section summaries, in step order.
    pub fn step_reports(&self) -> Vec<StepReport> {
        // (step, name) -> rank -> seconds
        let mut acc: BTreeMap<(u32, &str), BTreeMap<u32, f64>> = BTreeMap::new();
        for s in &self.spans {
            if let SpanKind::Driver { name, step } = &s.kind {
                *acc.entry((*step, name.as_str()))
                    .or_default()
                    .entry(s.rank)
                    .or_insert(0.0) += s.secs();
            }
        }
        let mut by_step: BTreeMap<u32, Vec<(String, DistStat)>> = BTreeMap::new();
        for ((step, name), per_rank) in acc {
            let mut samples: Vec<f64> = per_rank.into_values().collect();
            by_step
                .entry(step)
                .or_default()
                .push((name.to_string(), DistStat::from_samples(&mut samples)));
        }
        by_step
            .into_iter()
            .map(|(step, parts)| StepReport { step, parts })
            .collect()
    }

    /// The phases that actually have a window in the trace.
    pub fn phases_present(&self) -> Vec<Phase> {
        ALL_PHASES
            .into_iter()
            .filter(|p| {
                self.spans
                    .iter()
                    .any(|s| s.kind == SpanKind::Phase(*p))
            })
            .collect()
    }

    /// This execution as one stacked bar in the breakdown schema:
    /// `compute` = mean [`Phase::Other`] seconds (real executions compute
    /// under `Other`), `shift` folds in skew, `makespan` = traced wall.
    pub fn breakdown_row(&self, label: &str) -> schema::BreakdownRow {
        let b = self.phase_breakdown();
        let secs = |p: Phase| b.phases[p.index()].1.mean;
        schema::BreakdownRow {
            label: label.to_string(),
            compute: secs(Phase::Other),
            shift: secs(Phase::Shift) + secs(Phase::Skew),
            reduce: secs(Phase::Reduce),
            reassign: secs(Phase::Reassign),
            broadcast: secs(Phase::Broadcast),
            makespan: b.wall_secs,
        }
    }

    /// Single-row breakdown-schema CSV (see `bench_results/fig*.csv`).
    pub fn to_breakdown_csv(&self, label: &str) -> String {
        schema::breakdown_csv(&[self.breakdown_row(label)])
    }

    /// Event-schema CSV shared with the simulator's traces. Driver rows
    /// put the section name in `kind` and the step index in `peer`;
    /// blocked rows put the late sender's global rank in `peer`.
    pub fn to_events_csv(&self) -> String {
        let mut out = String::from(schema::EVENT_CSV_HEADER);
        out.push('\n');
        for s in &self.spans {
            match &s.kind {
                SpanKind::Phase(p) => {
                    schema::push_event_row(&mut out, s.rank, "phase", s.start, s.end, "", p.label())
                }
                SpanKind::Blocked { phase, peer, .. } => schema::push_event_row(
                    &mut out,
                    s.rank,
                    "blocked",
                    s.start,
                    s.end,
                    &peer.map(|r| r.to_string()).unwrap_or_default(),
                    phase.label(),
                ),
                SpanKind::Driver { name, step } => schema::push_event_row(
                    &mut out,
                    s.rank,
                    name,
                    s.start,
                    s.end,
                    &step.to_string(),
                    "",
                ),
            }
        }
        out
    }

    /// Chrome `trace_event` JSON, loadable in Perfetto or
    /// `chrome://tracing`. Spans are complete (`"ph":"X"`) events with
    /// microsecond timestamps; each category gets its own pid (process
    /// track) so phase windows, blocked intervals, and driver sections
    /// render as three parallel lanes with one thread per rank.
    pub fn to_chrome_json(&self) -> String {
        const PID_DRIVER: u32 = 0;
        const PID_PHASE: u32 = 1;
        const PID_BLOCKED: u32 = 2;
        let mut out = String::with_capacity(128 * self.spans.len() + 1024);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push_event =
            |out: &mut String, name: &str, pid: u32, tid: u32, ts: f64, dur: f64, args: &str| {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"name\":\"");
                escape_into(out, name);
                out.push_str("\",\"ph\":\"X\",\"pid\":");
                num_into(out, pid as f64);
                out.push_str(",\"tid\":");
                num_into(out, tid as f64);
                out.push_str(",\"ts\":");
                num_into(out, ts);
                out.push_str(",\"dur\":");
                num_into(out, dur);
                out.push_str(",\"cat\":\"");
                out.push_str(match pid {
                    PID_PHASE => "comm-phase",
                    PID_BLOCKED => "blocked",
                    _ => "driver",
                });
                out.push_str("\",\"args\":");
                out.push_str(args);
                out.push('}');
            };
        for s in &self.spans {
            let ts = s.start * 1e6;
            let dur = s.secs() * 1e6;
            match &s.kind {
                SpanKind::Phase(p) => {
                    let args = format!("{{\"phase\":\"{}\"}}", p.label());
                    push_event(&mut out, p.label(), PID_PHASE, s.rank, ts, dur, &args);
                }
                SpanKind::Blocked { phase, peer, step } => {
                    let mut args = format!("{{\"phase\":\"{}\"", phase.label());
                    if let Some(peer) = peer {
                        args.push_str(&format!(",\"peer\":{peer}"));
                    }
                    if let Some(step) = step {
                        args.push_str(&format!(",\"pstep\":{step}"));
                    }
                    args.push('}');
                    push_event(&mut out, "blocked", PID_BLOCKED, s.rank, ts, dur, &args);
                }
                SpanKind::Driver { name, step } => {
                    let args = format!("{{\"step\":{step}}}");
                    push_event(&mut out, name, PID_DRIVER, s.rank, ts, dur, &args);
                }
            }
        }
        // Metadata: name the three process tracks and each rank thread.
        for (pid, pname) in [
            (PID_DRIVER, "driver"),
            (PID_PHASE, "comm phases"),
            (PID_BLOCKED, "blocked"),
        ] {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            ));
            for rank in 0..self.ranks {
                out.push_str(&format!(
                    ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{rank},\
                     \"args\":{{\"name\":\"rank {rank}\"}}}}"
                ));
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// JSON-lines export: one flat object per span, times in seconds.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96 * self.spans.len());
        for s in &self.spans {
            out.push_str("{\"rank\":");
            num_into(&mut out, s.rank as f64);
            match &s.kind {
                SpanKind::Phase(p) => {
                    out.push_str(",\"kind\":\"phase\",\"phase\":\"");
                    out.push_str(p.label());
                    out.push('"');
                }
                SpanKind::Blocked { phase, peer, step } => {
                    out.push_str(",\"kind\":\"blocked\",\"phase\":\"");
                    out.push_str(phase.label());
                    out.push('"');
                    if let Some(peer) = peer {
                        out.push_str(",\"peer\":");
                        num_into(&mut out, *peer as f64);
                    }
                    if let Some(step) = step {
                        out.push_str(",\"pstep\":");
                        num_into(&mut out, *step as f64);
                    }
                }
                SpanKind::Driver { name, step } => {
                    out.push_str(",\"kind\":\"driver\",\"name\":\"");
                    escape_into(&mut out, name);
                    out.push_str("\",\"step\":");
                    num_into(&mut out, *step as f64);
                }
            }
            out.push_str(",\"start\":");
            num_into(&mut out, s.start);
            out.push_str(",\"end\":");
            num_into(&mut out, s.end);
            out.push_str("}\n");
        }
        out
    }

    /// Parse a trace previously exported by
    /// [`to_chrome_json`](Self::to_chrome_json) or
    /// [`to_jsonl`](Self::to_jsonl), sniffing the format.
    pub fn parse(text: &str) -> Result<ExecutionTrace, String> {
        let trimmed = text.trim_start();
        if trimmed.starts_with('{') && trimmed.contains("\"traceEvents\"") {
            Self::from_chrome_json(text)
        } else {
            Self::from_jsonl(text)
        }
    }

    /// Parse a Chrome `trace_event` JSON document produced by
    /// [`to_chrome_json`](Self::to_chrome_json).
    pub fn from_chrome_json(text: &str) -> Result<ExecutionTrace, String> {
        let doc = Json::parse(text)?;
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or("missing traceEvents array")?;
        let mut spans = Vec::new();
        let mut max_rank = 0u32;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
            if ph != "X" {
                continue;
            }
            let rank = ev
                .get("tid")
                .and_then(Json::as_f64)
                .ok_or("span without tid")? as u32;
            let ts = ev.get("ts").and_then(Json::as_f64).ok_or("span without ts")?;
            let dur = ev
                .get("dur")
                .and_then(Json::as_f64)
                .ok_or("span without dur")?;
            let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
            let cat = ev.get("cat").and_then(Json::as_str).unwrap_or("");
            let kind = match cat {
                "comm-phase" => SpanKind::Phase(
                    Phase::from_label(name).ok_or_else(|| format!("unknown phase '{name}'"))?,
                ),
                "blocked" => {
                    let args = ev.get("args");
                    let label = args
                        .and_then(|a| a.get("phase"))
                        .and_then(Json::as_str)
                        .unwrap_or("other");
                    let field = |key: &str| {
                        args.and_then(|a| a.get(key))
                            .and_then(Json::as_f64)
                            .map(|v| v as u32)
                    };
                    SpanKind::Blocked {
                        phase: Phase::from_label(label).unwrap_or(Phase::Other),
                        peer: field("peer"),
                        step: field("pstep"),
                    }
                }
                _ => {
                    let step = ev
                        .get("args")
                        .and_then(|a| a.get("step"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0) as u32;
                    SpanKind::Driver {
                        name: name.to_string(),
                        step,
                    }
                }
            };
            max_rank = max_rank.max(rank);
            spans.push(Span {
                rank,
                kind,
                start: ts / 1e6,
                end: (ts + dur) / 1e6,
            });
        }
        if spans.is_empty() {
            return Err("trace contains no spans".into());
        }
        Ok(ExecutionTrace {
            ranks: max_rank as usize + 1,
            spans,
        })
    }

    /// Parse a JSON-lines document produced by
    /// [`to_jsonl`](Self::to_jsonl).
    pub fn from_jsonl(text: &str) -> Result<ExecutionTrace, String> {
        let mut spans = Vec::new();
        let mut max_rank = 0u32;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let rank = v
                .get("rank")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: missing rank", i + 1))? as u32;
            let start = v
                .get("start")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: missing start", i + 1))?;
            let end = v
                .get("end")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: missing end", i + 1))?;
            let phase = || {
                v.get("phase")
                    .and_then(Json::as_str)
                    .and_then(Phase::from_label)
                    .unwrap_or(Phase::Other)
            };
            let kind = match v.get("kind").and_then(Json::as_str) {
                Some("phase") => SpanKind::Phase(phase()),
                Some("blocked") => SpanKind::Blocked {
                    phase: phase(),
                    peer: v.get("peer").and_then(Json::as_f64).map(|x| x as u32),
                    step: v.get("pstep").and_then(Json::as_f64).map(|x| x as u32),
                },
                Some("driver") => SpanKind::Driver {
                    name: v
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    step: v.get("step").and_then(Json::as_f64).unwrap_or(0.0) as u32,
                },
                other => return Err(format!("line {}: bad kind {other:?}", i + 1)),
            };
            max_rank = max_rank.max(rank);
            spans.push(Span {
                rank,
                kind,
                start,
                end,
            });
        }
        if spans.is_empty() {
            return Err("trace contains no spans".into());
        }
        Ok(ExecutionTrace {
            ranks: max_rank as usize + 1,
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ExecutionTrace {
        // Two ranks; phase windows tile [0, 1.0] on each.
        let mk = |rank, kind, start, end| Span {
            rank,
            kind,
            start,
            end,
        };
        ExecutionTrace::from_rank_buffers(vec![
            vec![
                mk(0, SpanKind::Phase(Phase::Other), 0.0, 0.4),
                mk(0, SpanKind::Phase(Phase::Shift), 0.4, 0.9),
                mk(0, SpanKind::Phase(Phase::Reduce), 0.9, 1.0),
                mk(
                    0,
                    SpanKind::Blocked {
                        phase: Phase::Shift,
                        peer: Some(3),
                        step: Some(2),
                    },
                    0.5,
                    0.6,
                ),
                mk(
                    0,
                    SpanKind::Driver {
                        name: "force".into(),
                        step: 0,
                    },
                    0.1,
                    0.9,
                ),
            ],
            vec![
                mk(1, SpanKind::Phase(Phase::Other), 0.0, 0.5),
                mk(1, SpanKind::Phase(Phase::Shift), 0.5, 0.8),
                mk(1, SpanKind::Phase(Phase::Reduce), 0.8, 1.0),
                mk(
                    1,
                    SpanKind::Driver {
                        name: "force".into(),
                        step: 0,
                    },
                    0.1,
                    0.8,
                ),
            ],
        ])
    }

    #[test]
    fn dist_stat_percentiles() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        let d = DistStat::from_samples(&mut xs);
        assert_eq!(d.p50, 2.0);
        assert_eq!(d.p95, 4.0);
        assert_eq!(d.max, 4.0);
        assert!((d.mean - 2.5).abs() < 1e-12);
        let d0 = DistStat::from_samples(&mut []);
        assert_eq!(d0.max, 0.0);
        let mut one = vec![7.0];
        let d1 = DistStat::from_samples(&mut one);
        assert_eq!((d1.p50, d1.p95, d1.max), (7.0, 7.0, 7.0));
    }

    #[test]
    fn breakdown_sums_to_wall() {
        let t = sample_trace();
        let b = t.phase_breakdown();
        assert_eq!(b.ranks, 2);
        assert!((b.wall_secs - 1.0).abs() < 1e-12);
        // Windows tile [0,1] on both ranks, so mean phase sum == wall.
        assert!((b.phase_sum_secs() - 1.0).abs() < 1e-12);
        let shift = b.phases[Phase::Shift.index()].1;
        assert!((shift.mean - 0.4).abs() < 1e-12);
        assert!((shift.max - 0.5).abs() < 1e-12);
        // Blocked: 0.1 s on rank 0 only, mean 0.05.
        assert!((b.blocked[Phase::Shift.index()].1 - 0.05).abs() < 1e-12);
    }

    #[test]
    fn step_reports_aggregate_by_section() {
        let t = sample_trace();
        let reports = t.step_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].step, 0);
        let (name, d) = &reports[0].parts[0];
        assert_eq!(name, "force");
        assert!((d.max - 0.8).abs() < 1e-12);
        assert!((d.mean - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_roundtrips() {
        let t = sample_trace();
        let json = t.to_chrome_json();
        let back = ExecutionTrace::from_chrome_json(&json).unwrap();
        assert_eq!(back.ranks, 2);
        assert_eq!(back.spans.len(), t.spans.len());
        for (a, b) in t.spans.iter().zip(&back.spans) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.kind, b.kind);
            assert!((a.start - b.start).abs() < 1e-9);
            assert!((a.end - b.end).abs() < 1e-9);
        }
        // The sniffing front door takes the same document.
        assert_eq!(ExecutionTrace::parse(&json).unwrap().spans.len(), t.spans.len());
    }

    #[test]
    fn jsonl_roundtrips() {
        let t = sample_trace();
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), t.spans.len());
        let back = ExecutionTrace::from_jsonl(&jsonl).unwrap();
        assert_eq!(back.spans, t.spans);
        assert_eq!(ExecutionTrace::parse(&jsonl).unwrap().spans, t.spans);
    }

    #[test]
    fn events_csv_uses_shared_schema() {
        let t = sample_trace();
        let csv = t.to_events_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(schema::EVENT_CSV_HEADER));
        assert!(csv.contains("0,phase,0.4,0.9,,shift"));
        assert!(csv.contains("0,blocked,0.5,0.6,3,shift"));
        assert!(csv.contains("0,force,0.1,0.9,0,"));
    }

    #[test]
    fn breakdown_row_maps_phases_to_figure_columns() {
        let t = sample_trace();
        let row = t.breakdown_row("measured");
        assert_eq!(row.label, "measured");
        assert!((row.compute - 0.45).abs() < 1e-12); // mean Other
        assert!((row.shift - 0.4).abs() < 1e-12);
        assert!((row.reduce - 0.15).abs() < 1e-12);
        assert_eq!(row.reassign, 0.0);
        assert!((row.makespan - 1.0).abs() < 1e-12);
        let csv = t.to_breakdown_csv("measured");
        assert!(csv.starts_with(schema::BREAKDOWN_CSV_HEADER));
    }

    #[test]
    fn phases_present_lists_only_used_phases() {
        let t = sample_trace();
        assert_eq!(
            t.phases_present(),
            vec![Phase::Shift, Phase::Reduce, Phase::Other]
        );
    }

    #[test]
    fn parse_rejects_empty_or_malformed() {
        assert!(ExecutionTrace::parse("").is_err());
        assert!(ExecutionTrace::parse("{\"traceEvents\":[]}").is_err());
        assert!(ExecutionTrace::from_jsonl("{\"rank\":0}\n").is_err());
    }
}
