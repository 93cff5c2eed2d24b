//! Benchmark-side spans: one per public call the benchmark makes, kept
//! in memory, with self-time arithmetic and a Chrome `trace_event` export
//! that also carries the program's own trace-ring events.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fades_telemetry::json::escape;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Name, e.g. `"dispatch.shard"`.
    pub name: String,
    /// Start, µs on the program's trace clock.
    pub start_us: u64,
    /// End, µs on the same clock (`start_us` while still open).
    pub end_us: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Iteration ("run") the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// An in-memory span list with an open-span stack for parenting.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Spans {
    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span at `now_us`, nested in the innermost open span.
    pub fn open(&mut self, name: &str, now_us: u64) -> usize {
        let id = self.push(name, now_us, now_us, self.stack.last().copied());
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it) at `now_us`.
    pub fn close(&mut self, id: usize, now_us: u64) {
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = now_us;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-finished span under `parent`.
    pub fn push(&mut self, name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Span `id`.
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length covered by `intervals` (overlaps counted once).
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    merge_intervals(intervals).iter().map(|(s, e)| e - s).sum()
}

/// Sorts and coalesces overlapping or touching `[start, end)` intervals.
pub fn merge_intervals(intervals: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let clipped = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, ch)| s.dur_us().saturating_sub(union_len(ch)))
        .collect()
}

/// Self time summed per span name, for spans whose run passes `keep`.
pub fn self_time_by_name(spans: &[Span], keep: impl Fn(u32) -> bool) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if keep(s.run) {
            *out.entry(s.name.clone()).or_insert(0) += t;
        }
    }
    out
}

/// The lane engine's busy time inside one call, as a single interval:
/// the busiest thread's summed experiment time, placed from the first
/// experiment's start and capped at `cap_end`. A union of the spans would
/// undercount: each lane span carries its charged share of the cohort's
/// wall, so per thread they add up to the cohort's elapsed time but do
/// not tile the timeline. `events` yields `(tid, start, end)`; `None`
/// when the engine did not run.
pub fn lane_busy(
    events: impl Iterator<Item = (u64, u64, u64)>,
    cap_end: u64,
) -> Option<(u64, u64)> {
    let mut per_tid: BTreeMap<u64, u64> = BTreeMap::new();
    let mut first: Option<u64> = None;
    for (tid, s, e) in events.filter(|(_, s, e)| e > s) {
        *per_tid.entry(tid).or_insert(0) += e - s;
        first = Some(first.map_or(s, |f| f.min(s)));
    }
    let busy = *per_tid.values().max()?;
    let start = first?;
    Some((start, (start + busy).min(cap_end)))
}

/// One event of the program's own trace ring, as exported.
#[derive(Debug, Clone)]
pub struct ProgramEvent {
    /// Phase name (`"experiment"`, `"vfit-experiment"`, ...).
    pub name: &'static str,
    /// Start, µs on the trace clock.
    pub ts_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Dense worker-thread id.
    pub tid: u64,
    /// Experiment index the worker was running.
    pub experiment: u64,
}

/// Renders benchmark spans (pid 1, one track) and program events (pid 2,
/// one track per worker thread) as Chrome `trace_event` JSON, the same
/// `{"traceEvents":[...]}` object form the program's own exporter writes.
pub fn chrome_json(spans: &[Span], events: &[ProgramEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for (id, s) in spans.iter().enumerate() {
        sep(&mut out);
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":0,\"args\":{{\"id\":{id},\"parent\":{parent},\"run\":{}}}}}",
            escape(&s.name),
            s.start_us,
            s.dur_us(),
            s.run
        );
    }
    for e in events {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"program\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{},\"args\":{{\"exp\":{}}}}}",
            escape(e.name),
            e.ts_us,
            e.dur_us,
            e.tid,
            e.experiment
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (25, 30)]), 25);
        assert_eq!(union_len(&[(7, 7), (3, 1)]), 0);
        assert_eq!(
            merge_intervals(&[(5, 6), (0, 2), (1, 3)]),
            vec![(0, 3), (5, 6)]
        );
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut s = Spans::default();
        let root = s.open("iteration", 0);
        let a = s.open("setup", 10);
        s.close(a, 40);
        let b = s.open("dispatch.shard", 50);
        // Two overlapping engine children: 60..80 and 70..90 cover 30 µs.
        s.push("lane", 60, 80, Some(b));
        s.push("lane", 70, 90, Some(b));
        // A child poking past its parent only counts inside it.
        s.push("lane", 95, 130, Some(b));
        s.close(b, 100);
        s.close(root, 120);
        let t = self_times(s.all());
        assert_eq!(t[root], 120 - 30 - 50);
        assert_eq!(t[a], 30);
        assert_eq!(t[b], 50 - 30 - 5);
        let by_name = self_time_by_name(s.all(), |_| true);
        assert_eq!(by_name["lane"], 20 + 20 + 35);
        assert_eq!(by_name["iteration"], 40);
    }

    #[test]
    fn lane_busy_is_the_busiest_thread_sum() {
        // Lane shares overlap on thread 1 (30 + 50 = 80 µs charged); a
        // scalar worker on thread 2 ran 20 µs alongside.
        let ev = [(1, 100, 130), (1, 110, 160), (2, 105, 125), (2, 140, 140)];
        assert_eq!(lane_busy(ev.into_iter(), 1000), Some((100, 180)));
        assert_eq!(lane_busy(ev.into_iter(), 150), Some((100, 150)));
        assert_eq!(lane_busy(std::iter::empty(), 10), None);
    }

    #[test]
    fn close_unwinds_nested_open_spans() {
        let mut s = Spans::default();
        let outer = s.open("outer", 0);
        let inner = s.open("inner", 5);
        s.close(outer, 9);
        assert_eq!(s.get(inner).end_us, 9);
        assert_eq!(s.get(inner).parent, Some(outer));
        let next = s.open("next", 10);
        assert_eq!(s.get(next).parent, None);
    }

    #[test]
    fn chrome_export_is_one_json_object() {
        let mut s = Spans::default();
        s.set_run(3);
        let id = s.open("plan \"x\"", 1);
        s.close(id, 4);
        let ev = ProgramEvent {
            name: "experiment",
            ts_us: 2,
            dur_us: 1,
            tid: 5,
            experiment: 7,
        };
        let json = chrome_json(s.all(), &[ev]);
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert!(json.ends_with("}]}"));
        assert!(json.contains("\"name\":\"plan \\\"x\\\"\""));
        assert!(json.contains("\"run\":3"));
        assert!(json.contains("\"tid\":5,\"args\":{\"exp\":7}"));
    }
}
