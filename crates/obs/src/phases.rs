//! Per-round phase timing: the generalized replacement for hand-rolled
//! `*_ns` accumulator structs.
//!
//! A [`Phases`] instance owns one duration accumulator per named phase.
//! Each round, the caller takes a [`PhaseMark`] from
//! [`Phases::begin_round`] and advances it past each phase boundary with
//! [`Phases::mark`] — exactly **one** `Instant::now()` per boundary, the
//! same cost as the bespoke two-`Instant` pattern it replaces.  When
//! tracing is [enabled](crate::enabled), every boundary additionally
//! emits a complete span covering the phase's extent, so the same marks
//! that feed the accumulators also draw the per-round flame rows in the
//! chrome trace.

use std::time::Instant;

use crate::{enabled, ns_since_epoch, session_start_ns, with_buf, Event};

/// Cumulative per-phase wall-clock nanoseconds over any number of
/// rounds, with optional span emission at each boundary.
#[derive(Clone, Debug)]
pub struct Phases {
    names: &'static [&'static str],
    ns: Vec<u64>,
    rounds: u64,
}

/// The running timestamp inside one round; created by
/// [`Phases::begin_round`], advanced by [`Phases::mark`].
#[derive(Clone, Copy, Debug)]
pub struct PhaseMark {
    t: Instant,
}

impl Phases {
    /// Creates an accumulator for the given phase names (one slot each).
    pub fn new(names: &'static [&'static str]) -> Self {
        Phases {
            names,
            ns: vec![0; names.len()],
            rounds: 0,
        }
    }

    /// Starts a round: records the current instant as the first phase's
    /// start.
    #[inline]
    pub fn begin_round(&self) -> PhaseMark {
        PhaseMark { t: Instant::now() }
    }

    /// Closes phase `idx` at the current instant: adds the elapsed time
    /// since the mark to that phase's accumulator, emits a span when
    /// tracing is enabled, and advances the mark.
    #[inline]
    pub fn mark(&mut self, mark: &mut PhaseMark, idx: usize) {
        let now = Instant::now();
        let dur_ns = (now - mark.t).as_nanos() as u64;
        self.ns[idx] += dur_ns;
        if enabled() {
            let name = self.names[idx];
            // A phase that began before tracing was switched on is clipped
            // to the session start.  Its raw start would precede the
            // session (or even the epoch, where it saturated to 0 while the
            // duration kept the pre-session part), and the shifted span
            // would overlap the phases and waves that follow it.
            let end_ns = ns_since_epoch(now);
            let ts_ns = ns_since_epoch(mark.t).max(session_start_ns()).min(end_ns);
            let dur_ns = end_ns - ts_ns;
            with_buf(|b| {
                b.sync_session();
                let tid = b.tid;
                b.events.push(Event::Complete {
                    name,
                    tid,
                    ts_ns,
                    dur_ns,
                    arg: None,
                });
                b.flush_if_idle();
            });
        }
        mark.t = now;
    }

    /// Ends a round (bumps the round counter).
    #[inline]
    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Clears every accumulator and the round counter.
    pub fn reset(&mut self) {
        self.ns.iter_mut().for_each(|v| *v = 0);
        self.rounds = 0;
    }

    /// Phase names, in slot order.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Accumulated nanoseconds for phase `idx`.
    pub fn ns(&self, idx: usize) -> u64 {
        self.ns[idx]
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Sum over all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Publishes the accumulators as gauges named
    /// `{prefix}.{phase}_ns` plus `{prefix}.rounds`.
    pub fn publish(&self, prefix: &str) {
        let reg = crate::registry();
        for (i, name) in self.names.iter().enumerate() {
            reg.set_gauge(&format!("{prefix}.{name}_ns"), self.ns[i] as i64);
        }
        reg.set_gauge(&format!("{prefix}.rounds"), self.rounds as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase_and_counts_rounds() {
        let mut p = Phases::new(&["a", "b"]);
        for _ in 0..3 {
            let mut m = p.begin_round();
            std::hint::black_box(17u64.pow(2));
            p.mark(&mut m, 0);
            p.mark(&mut m, 1);
            p.end_round();
        }
        assert_eq!(p.rounds(), 3);
        assert_eq!(p.total_ns(), p.ns(0) + p.ns(1));
        p.reset();
        assert_eq!(p.rounds(), 0);
        assert_eq!(p.total_ns(), 0);
    }

    #[test]
    fn a_phase_begun_before_start_is_clipped_to_the_session() {
        let _guard = crate::test_support::serial();
        let mut p = Phases::new(&["early", "late"]);
        let mut m = p.begin_round();
        std::thread::sleep(std::time::Duration::from_millis(2));
        crate::start();
        let session = crate::session_start_ns();
        p.mark(&mut m, 0);
        p.mark(&mut m, 1);
        let trace = crate::stop();
        let early = trace
            .events()
            .iter()
            .find_map(|e| match e {
                Event::Complete {
                    name: "early",
                    ts_ns,
                    dur_ns,
                    ..
                } => Some((*ts_ns, *dur_ns)),
                _ => None,
            })
            .expect("the early phase is traced");
        assert!(early.0 >= session, "starts at the session: {early:?}");
        assert!(
            early.1 < 2_000_000,
            "the pre-session part is cut: {early:?}"
        );
        crate::validate_chrome_trace(&trace.to_chrome_trace()).expect("phases abut");
    }

    #[test]
    fn marks_emit_nesting_spans_when_tracing() {
        let _guard = crate::test_support::serial();
        crate::start();
        let mut p = Phases::new(&["alpha", "beta"]);
        {
            let _wave = crate::span("wave");
            let mut m = p.begin_round();
            p.mark(&mut m, 0);
            p.mark(&mut m, 1);
            p.end_round();
        }
        let trace = crate::stop();
        let json = trace.to_chrome_trace();
        let summary = crate::validate_chrome_trace(&json).expect("phase spans must nest");
        assert_eq!(summary.complete, 3, "wave + alpha + beta: {json}");
        assert!(json.contains("\"alpha\"") && json.contains("\"beta\""));
    }
}
