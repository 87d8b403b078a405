//! [`CandidateView`]: the compact, allocation-reusing form of a protocol that
//! the symbolic algorithms run on.
//!
//! Backward coverability, the complement of an upward-closed set and the
//! Karp–Miller cover only ever look at four things: the state count, the
//! per-state outputs, the ω-initial row `L + ω·I(x)` and the non-silent
//! transitions as `(pre_lo, pre_hi, post_lo, post_hi)` index quadruples.  A
//! view holds exactly these, in flat vectors that [`CandidateView::reset`]
//! refills in place, so a caller that triages millions of candidates (the
//! busy-beaver pipeline decodes each fingerprint straight into one reused
//! view) builds no [`Protocol`] for a candidate the prefilters reject.

use crate::omega::OMEGA;
use popproto_model::{Output, Protocol};

/// The state count, outputs, ω-initial row and non-silent transition
/// deltas of one protocol.
///
/// # Examples
///
/// ```
/// use popproto_model::Output;
/// use popproto_symbolic::{CandidateView, OMEGA};
///
/// // Two states, input in state 0, one transition (0, 0) ↦ (0, 1).
/// let mut view = CandidateView::default();
/// view.reset(2);
/// view.set_output(1, Output::True);
/// view.add_input_state(0);
/// view.push_transition((0, 0), (1, 0));
/// view.push_transition((0, 1), (0, 1)); // silent: dropped
/// assert_eq!(view.root(), &[OMEGA, 0]);
/// assert_eq!(view.deltas(), &[[0, 0, 0, 1]]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateView {
    outputs: Vec<Output>,
    root: Vec<u32>,
    leaders: u64,
    deltas: Vec<[usize; 4]>,
}

impl CandidateView {
    /// The view of `protocol`: its non-silent transitions in protocol order,
    /// leaders as exact counts and `ω` on every input state.
    ///
    /// # Panics
    ///
    /// Panics if a leader count does not fit a finite `u32` ω-row entry.
    pub fn from_protocol(protocol: &Protocol) -> Self {
        let mut view = CandidateView::default();
        view.reset(protocol.num_states());
        for q in protocol.state_ids() {
            view.set_output(q.index(), protocol.output_of(q));
        }
        for (q, &count) in protocol.leaders().counts().iter().enumerate() {
            view.add_leaders(q, count);
        }
        for var in protocol.input_variables() {
            view.add_input_state(var.state.index());
        }
        for t in protocol.non_silent_transitions() {
            view.deltas.push([
                t.pre.lo().index(),
                t.pre.hi().index(),
                t.post.lo().index(),
                t.post.hi().index(),
            ]);
        }
        view
    }

    /// Empties the view to `num_states` states with output `0`, no agents
    /// and no transitions, keeping every allocation.
    pub fn reset(&mut self, num_states: usize) {
        self.outputs.clear();
        self.outputs.resize(num_states, Output::False);
        self.root.clear();
        self.root.resize(num_states, 0);
        self.leaders = 0;
        self.deltas.clear();
    }

    /// Sets the output of state `q`.
    pub fn set_output(&mut self, q: usize, output: Output) {
        self.outputs[q] = output;
    }

    /// Declares `q` an input state: its root entry becomes `ω`.
    pub fn add_input_state(&mut self, q: usize) {
        self.root[q] = OMEGA;
    }

    /// Adds `count` leader agents in state `q` (absorbed by `ω` on an input
    /// state, but always counted in [`CandidateView::leaders`]).
    ///
    /// # Panics
    ///
    /// Panics if the count does not fit a finite `u32` ω-row entry.
    pub fn add_leaders(&mut self, q: usize, count: u64) {
        self.leaders += count;
        if self.root[q] != OMEGA {
            let total = u64::from(self.root[q]) + count;
            self.root[q] = u32::try_from(total)
                .ok()
                .filter(|&c| c != OMEGA)
                .expect("leader count exceeds u32");
        }
    }

    /// Appends the transition `pre ↦ post` (either pair in any order); a
    /// silent transition (`pre = post` as multisets) is dropped.
    pub fn push_transition(&mut self, pre: (usize, usize), post: (usize, usize)) {
        let (p0, p1) = (pre.0.min(pre.1), pre.0.max(pre.1));
        let (q0, q1) = (post.0.min(post.1), post.0.max(post.1));
        if (p0, p1) != (q0, q1) {
            self.deltas.push([p0, p1, q0, q1]);
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.outputs.len()
    }

    /// Per-state outputs.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// The ω-initial row `L + ω·I(x)`.
    pub fn root(&self) -> &[u32] {
        &self.root
    }

    /// The total leader count `|L|`.
    pub fn leaders(&self) -> u64 {
        self.leaders
    }

    /// The non-silent transitions as `[pre_lo, pre_hi, post_lo, post_hi]`.
    pub fn deltas(&self) -> &[[usize; 4]] {
        &self.deltas
    }
}
