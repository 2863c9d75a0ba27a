//! Spans and call counters recorded by the benchmark's own tasks around
//! their calls into a layer. Nothing here reaches into `crates/core`.
//!
//! Every rank task owns one [`Probe`]. Its counters (calls, calls that moved
//! nothing, elements moved) are always on — two integer adds per call. Call
//! times and spans are taken only in a traced repetition, so the end-to-end
//! metrics never pay for a clock read.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span covers. The hierarchy is run → repetition → rank task →
/// message → call; `Opening` (a collective's open until `Streaming`) is a
/// child of its message like the calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Run,
    Rep,
    Task,
    Msg,
    Open,
    Opening,
    Push,
    Pop,
    Flush,
    Bcast,
    Reduce,
    Poll,
    RouteCompute,
}

/// Number of [`Kind`] variants (sizes the per-kind counter array).
pub const KINDS: usize = Kind::RouteCompute as usize + 1;

impl Kind {
    /// The span name written to the trace file: the layer call it wraps.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Rep => "repetition",
            Kind::Task => "rank_task",
            Kind::Msg => "message",
            Kind::Open => "open",
            Kind::Opening => "opening",
            Kind::Push => "try_push_slice",
            Kind::Pop => "try_pop_slice",
            Kind::Flush => "try_flush",
            Kind::Bcast => "try_bcast_slice",
            Kind::Reduce => "try_reduce_slice",
            Kind::Poll => "poll",
            Kind::RouteCompute => "RoutingPlan::compute",
        }
    }
}

/// Marks "no parent" in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. `parent` indexes the same span list; `id` is
/// `(pair-or-collective << 32) | msg#` on message spans and their children,
/// so the sender's and the receiver's spans of one message share it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

/// Per-kind counters of one task.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStat {
    /// Calls made.
    pub calls: u64,
    /// Calls that moved no element (the wasted attempts).
    pub empty: u64,
    /// Elements moved.
    pub elems: u64,
    /// Time inside the calls (traced repetitions only).
    pub busy_ns: u64,
}

impl CallStat {
    pub fn add(&mut self, o: &CallStat) {
        self.calls += o.calls;
        self.empty += o.empty;
        self.elems += o.elems;
        self.busy_ns += o.busy_ns;
    }
}

/// How a repetition records: not at all, or spans for one message in
/// `sample_every` into a buffer of `cap` spans per rank.
#[derive(Clone, Copy, Debug)]
pub struct TraceCfg {
    pub sample_every: u32,
    pub cap: usize,
}

/// One rank task's recorder.
pub struct Probe {
    pub stats: [CallStat; KINDS],
    cfg: Option<TraceCfg>,
    /// `spans[0]` is the rank-task span once [`Probe::task_begin`] ran.
    pub spans: Vec<Span>,
    /// Index of the open message span, if this message is sampled.
    msg: u32,
    id: u64,
    /// Spans that did not fit the pre-allocated buffer.
    pub dropped: u64,
}

impl Probe {
    pub fn new(cfg: Option<TraceCfg>) -> Probe {
        Probe {
            stats: [CallStat::default(); KINDS],
            cfg,
            spans: Vec::with_capacity(cfg.map_or(0, |c| c.cap)),
            msg: NO_PARENT,
            id: 0,
            dropped: 0,
        }
    }

    pub fn traced(&self) -> bool {
        self.cfg.is_some()
    }

    fn record(&mut self, span: Span) -> u32 {
        if self.spans.len() >= self.cfg.map_or(0, |c| c.cap) {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn task_begin(&mut self) {
        if self.traced() {
            let t = now_ns();
            self.record(Span {
                kind: Kind::Task,
                start_ns: t,
                end_ns: t,
                parent: NO_PARENT,
                id: 0,
            });
        }
    }

    pub fn task_end(&mut self) {
        if let Some(task) = self.spans.first_mut() {
            task.end_ns = now_ns();
        }
    }

    /// Start message `msg_no` of pair/collective `stream`; its spans are
    /// recorded when `msg_no` is a multiple of the sampling interval.
    pub fn msg_begin(&mut self, stream: u32, msg_no: u32) {
        let Some(cfg) = self.cfg else { return };
        self.id = (u64::from(stream) << 32) | u64::from(msg_no);
        self.msg = NO_PARENT;
        if msg_no.is_multiple_of(cfg.sample_every) {
            let t = now_ns();
            self.msg = self.record(Span {
                kind: Kind::Msg,
                start_ns: t,
                end_ns: t,
                parent: 0,
                id: self.id,
            });
        }
    }

    pub fn msg_end(&mut self) {
        if self.msg != NO_PARENT {
            self.spans[self.msg as usize].end_ns = now_ns();
            self.msg = NO_PARENT;
        }
    }

    /// Record an interval that began at `start_ns` and ends now, as a child
    /// of the current message (if sampled).
    pub fn interval(&mut self, kind: Kind, start_ns: u64) {
        if self.msg != NO_PARENT {
            let (parent, id) = (self.msg, self.id);
            self.record(Span {
                kind,
                start_ns,
                end_ns: now_ns(),
                parent,
                id,
            });
        }
    }

    /// Run one call into a layer: count it, and in a traced repetition time
    /// it and (for a sampled message) record its span. `moved` extracts the
    /// number of elements a successful call moved.
    pub fn call<R, E>(
        &mut self,
        kind: Kind,
        f: impl FnOnce() -> Result<R, E>,
        moved: impl FnOnce(&R) -> usize,
    ) -> Result<R, E> {
        let start = if self.traced() { now_ns() } else { 0 };
        let r = f();
        let n = r.as_ref().map_or(0, moved);
        let s = &mut self.stats[kind as usize];
        s.calls += 1;
        s.empty += u64::from(n == 0);
        s.elems += n as u64;
        if self.traced() {
            let end = now_ns();
            self.stats[kind as usize].busy_ns += end - start;
            if self.msg != NO_PARENT {
                let (parent, id) = (self.msg, self.id);
                self.record(Span {
                    kind,
                    start_ns: start,
                    end_ns: end,
                    parent,
                    id,
                });
            }
        }
        r
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Render spans as the trace file: one JSON object with the sampling
/// interval and a `spans` array of `{name, start_ns, end_ns, parent, id}`
/// (`parent` is an index into the array, -1 at the root).
pub fn to_json(workload: &str, sample_every: u32, dropped: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 80);
    out.push_str(&format!(
        "{{\"workload\": \"{workload}\", \"sample_every\": {sample_every}, \"dropped_spans\": {dropped}, \"spans\": [\n"
    ));
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}}}{}\n",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            parent,
            s.id,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(Kind::Task, 0, 100, NO_PARENT),
            span(Kind::Msg, 10, 60, 0),
            span(Kind::Push, 10, 20, 1),
            // Overlaps the previous child: 15..30 adds only 20..30.
            span(Kind::Flush, 15, 30, 1),
            // Sticks out of its parent: clipped to 50..60.
            span(Kind::Poll, 50, 80, 1),
            span(Kind::Msg, 70, 90, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 50 - 20, "task minus its two messages");
        assert_eq!(
            st[1],
            50 - 10 - 10 - 10,
            "message minus covered 10..30 and 50..60"
        );
        assert_eq!(st[2], 10);
        assert_eq!(st[5], 20);
    }

    #[test]
    fn probe_counts_always_and_records_only_sampled_messages() {
        let mut untraced = Probe::new(None);
        let r: Result<usize, ()> = untraced.call(Kind::Push, || Ok(5), |n| *n);
        assert_eq!(r, Ok(5));
        let _: Result<usize, ()> = untraced.call(Kind::Push, || Ok(0), |n| *n);
        let s = untraced.stats[Kind::Push as usize];
        assert_eq!((s.calls, s.empty, s.elems, s.busy_ns), (2, 1, 5, 0));
        assert!(untraced.spans.is_empty());

        let mut p = Probe::new(Some(TraceCfg {
            sample_every: 2,
            cap: 16,
        }));
        p.task_begin();
        for m in 0..4u32 {
            p.msg_begin(7, m);
            let _: Result<usize, ()> = p.call(Kind::Pop, || Ok(1), |n| *n);
            p.msg_end();
        }
        p.task_end();
        // Task + (message + call) for messages 0 and 2.
        assert_eq!(p.spans.len(), 5);
        assert_eq!(p.spans[1].id, 7 << 32);
        assert_eq!(p.spans[3].id, (7 << 32) | 2);
        assert_eq!(p.spans[4].parent, 3);
        assert_eq!(p.stats[Kind::Pop as usize].calls, 4, "all calls are timed");
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut p = Probe::new(Some(TraceCfg {
            sample_every: 1,
            cap: 2,
        }));
        p.task_begin();
        p.msg_begin(0, 0);
        let _: Result<usize, ()> = p.call(Kind::Pop, || Ok(1), |n| *n);
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.dropped, 1);
    }
}
