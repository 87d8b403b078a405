//! Backward coverability with antichain-minimised frontiers, and the
//! all-`n` stable sets it induces.
//!
//! Population protocols are well-structured: the predecessor of an
//! upward-closed set of configurations is upward-closed, and Dickson's lemma
//! makes the standard backward fixpoint terminate.  Given target
//! configurations `m₁ … m_k`, [`backward_coverability`] computes the finite
//! antichain of **minimal** configurations that can reach the upward closure
//! `↑{m₁ … m_k}` — valid for every population size at once.
//!
//! The payoff is [`symbolic_stable_sets`]: by Definition 2 a configuration
//! `C` fails to be `b`-stable iff it can *cover* some state of output
//! `≠ b` (reach a configuration with at least one agent populating it).
//! `SC_b` is therefore the complement of `pre*(↑{1·q : O(q) ≠ b})` — the
//! least backward fixpoint of the coverability operator — and the complement
//! of an upward-closed set is downward-closed with a small ideal basis
//! (Lemma 3.1 in action: the finite basis witnesses downward closure for
//! *all* population sizes simultaneously).

use crate::omega::{insert_maximal, insert_minimal, row_leq, rows64_to_set, OMEGA64};
use crate::view::CandidateView;
use crate::SymbolicLimits;
use popproto_model::{Output, Protocol};
use popproto_vas::DownwardClosedSet;
use serde::{Deserialize, Serialize};

/// The minimal basis of an upward-closed set `pre*(↑targets)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverabilityBasis {
    /// The antichain of minimal elements, as raw count vectors.
    pub minimal: Vec<Vec<u64>>,
    /// Number of predecessor candidates generated before convergence.
    pub generated: usize,
    /// `true` if the fixpoint converged below the basis cap.  When `false`
    /// the basis is an *under*-approximation of `pre*` (its complement
    /// over-approximates the stable set).
    pub complete: bool,
}

impl CoverabilityBasis {
    /// Returns `true` if `counts` covers some minimal element, i.e. belongs
    /// to the upward-closed set.
    pub fn contains_counts(&self, counts: &[u64]) -> bool {
        self.minimal
            .iter()
            .any(|m| m.iter().zip(counts).all(|(&lo, &c)| c >= lo))
    }
}

/// Reusable buffers of the backward fixpoint and the complement, as flat
/// `u64` rows of stride `|Q|` (see [`crate::omega`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct BackwardRows {
    /// The minimal basis, in `retain`-then-`push` insertion order.
    pub(crate) minimal: Vec<u64>,
    /// The complement's ideal rows (`OMEGA64` = unbounded).
    pub(crate) ideals: Vec<u64>,
    targets: Vec<u64>,
    worklist: Vec<u64>,
    next: Vec<u64>,
    row: Vec<u64>,
    cand: Vec<u64>,
}

impl BackwardRows {
    /// The backward fixpoint of `view` from the rows of `self.targets`,
    /// leaving the basis in `self.minimal`.  Returns `(generated, complete)`.
    ///
    /// For a transition `t : (a, b) ↦ (c, d)` and a minimal target `m`, the
    /// minimal configuration that fires `t` into `↑m` is
    /// `q ↦ max(pre_t(q), m(q) − post_t(q) + pre_t(q))`.  The worklist is
    /// LIFO, and the caps are checked before each expansion.
    fn backward(&mut self, view: &CandidateView, limits: &SymbolicLimits) -> (usize, bool) {
        let n = view.num_states();
        self.minimal.clear();
        self.worklist.clear();
        for t in self.targets.chunks_exact(n) {
            if insert_minimal(&mut self.minimal, t) {
                self.worklist.extend_from_slice(t);
            }
        }
        let mut generated = 0usize;
        while !self.worklist.is_empty() {
            let top = self.worklist.len() - n;
            self.row.clear();
            self.row.extend_from_slice(&self.worklist[top..]);
            self.worklist.truncate(top);
            // A frontier element subsumed since it was queued contributes
            // only non-minimal predecessors; skip it.
            if !self.minimal.chunks_exact(n).any(|m| *m == self.row[..]) {
                continue;
            }
            if self.minimal.len() / n > limits.max_backward_basis
                || generated > 64 * limits.max_backward_basis
            {
                return (generated, false);
            }
            for &delta in view.deltas() {
                generated += 1;
                let [p0, p1, q0, q1] = delta;
                let pre = |q: usize| u64::from(p0 == q) + u64::from(p1 == q);
                let post = |q: usize| u64::from(q0 == q) + u64::from(q1 == q);
                // The predecessor is ≥ m, and so subsumed by the basis element
                // at or below m, unless t nets an agent in a state where m
                // needs more agents than t consumes.
                if ![q0, q1]
                    .into_iter()
                    .any(|q| post(q) > pre(q) && self.row[q] > pre(q))
                {
                    continue;
                }
                self.cand.clear();
                self.cand.extend_from_slice(&self.row);
                for q in delta {
                    self.cand[q] = pre(q).max((self.row[q] + pre(q)).saturating_sub(post(q)));
                }
                if insert_minimal(&mut self.minimal, &self.cand) {
                    self.worklist.extend_from_slice(&self.cand);
                }
            }
        }
        (generated, true)
    }

    /// The complement of `↑self.minimal` (stride `n`) into `self.ideals`,
    /// as the antichain of maximal ideal rows.  Returns `false` if an
    /// intermediate antichain exceeds `limits.max_ideals`.
    ///
    /// `¬↑m = ⋃_{q : m(q) ≥ 1} ↓⟨…, m(q) − 1 at q, ω elsewhere⟩`, and the
    /// complement of the union is the intersection of the per-element
    /// complements, taken one basis element at a time.  Each step keeps the
    /// maximal rows of the pairwise intersections, a set independent of the
    /// order they are generated in, so its size — checked against the cap
    /// after every step — is too.
    fn complement(&mut self, n: usize, limits: &SymbolicLimits) -> bool {
        self.ideals.clear();
        self.ideals.resize(n, OMEGA64);
        for m in self.minimal.chunks_exact(n) {
            self.next.clear();
            for r in self.ideals.chunks_exact(n) {
                // ↓r ∩ ↓⟨m(q) − 1 at q⟩ lowers entry q of r.  If some entry
                // of r is already below m(q) (m ≰ r), that intersection is r
                // itself, which contains every other one.
                if !row_leq(m, r) {
                    insert_maximal(&mut self.next, r);
                    continue;
                }
                for q in (0..n).filter(|&q| m[q] >= 1) {
                    self.cand.clear();
                    self.cand.extend_from_slice(r);
                    self.cand[q] = m[q] - 1;
                    insert_maximal(&mut self.next, &self.cand);
                }
            }
            // An all-zero element covers everything: the complement is empty.
            std::mem::swap(&mut self.ideals, &mut self.next);
            if self.ideals.len() / n > limits.max_ideals {
                return false;
            }
            if self.ideals.is_empty() {
                break;
            }
        }
        true
    }

    /// `SC_b` of `view` into `self.ideals`: the complement of the backward
    /// fixpoint from the unit rows of the states with output `≠ b`.
    /// Returns `None` if the complement exceeded the ideal cap, otherwise
    /// whether the fixpoint converged (the set is then exact).
    pub(crate) fn stable_set(
        &mut self,
        view: &CandidateView,
        b: Output,
        limits: &SymbolicLimits,
    ) -> Option<bool> {
        let n = view.num_states();
        self.targets.clear();
        for (q, &out) in view.outputs().iter().enumerate() {
            if out != b {
                let start = self.targets.len();
                self.targets.resize(start + n, 0);
                self.targets[start + q] = 1;
            }
        }
        let (_, complete) = self.backward(view, limits);
        self.complement(n, limits).then_some(complete)
    }
}

/// Computes the minimal basis of `pre*(↑targets)` by the standard backward
/// algorithm, keeping the frontier antichain-minimised at every step.
///
/// # Panics
///
/// Panics if a target has the wrong dimension.
pub fn backward_coverability(
    protocol: &Protocol,
    targets: &[Vec<u64>],
    limits: &SymbolicLimits,
) -> CoverabilityBasis {
    let view = CandidateView::from_protocol(protocol);
    let n = view.num_states();
    for t in targets {
        assert_eq!(t.len(), n, "target dimension mismatch");
    }
    let mut rows = BackwardRows {
        targets: targets.concat(),
        ..BackwardRows::default()
    };
    let (generated, complete) = rows.backward(&view, limits);
    CoverabilityBasis {
        minimal: rows.minimal.chunks_exact(n).map(<[u64]>::to_vec).collect(),
        generated,
        complete,
    }
}

/// The complement of the upward-closed set `↑{m₁ … m_k}`, as a canonical
/// downward-closed set.
///
/// Returns `None` if an intermediate antichain exceeds `limits.max_ideals`
/// (the result would not be trustworthy to compute further with).
pub fn complement_of_upward(
    minimal: &[Vec<u64>],
    num_states: usize,
    limits: &SymbolicLimits,
) -> Option<DownwardClosedSet> {
    let mut rows = BackwardRows {
        minimal: minimal.concat(),
        ..BackwardRows::default()
    };
    rows.complement(num_states, limits)
        .then(|| rows64_to_set(&rows.ideals, num_states))
}

/// A symbolically computed stable set `SC_b`, valid for every population
/// size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SymbolicStableSet {
    /// The output class the set stabilises to.
    pub output: Output,
    /// The stable set as a canonical finite union of ideals.
    pub set: DownwardClosedSet,
    /// Size of the backward-coverability basis the set was derived from.
    pub basis_size: usize,
    /// `true` if the backward fixpoint converged: the set is then *exactly*
    /// `SC_b`.  When `false` it is an over-approximation (sound for
    /// refutations, not for certifications).
    pub exact: bool,
}

/// Computes `SC_b` for all population sizes: the complement of the least
/// backward coverability fixpoint of the states with output `≠ b`.
///
/// Returns `None` if the ideal representation of the complement exceeds the
/// configured cap.
pub fn symbolic_stable_sets(
    protocol: &Protocol,
    b: Output,
    limits: &SymbolicLimits,
) -> Option<SymbolicStableSet> {
    let view = CandidateView::from_protocol(protocol);
    let mut rows = BackwardRows::default();
    let exact = rows.stable_set(&view, b, limits)?;
    let n = view.num_states();
    Some(SymbolicStableSet {
        output: b,
        set: rows64_to_set(&rows.ideals, n),
        basis_size: rows.minimal.len() / n,
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Config, Output, ProtocolBuilder};

    fn threshold2_protocol() -> Protocol {
        let mut b = ProtocolBuilder::new("x >= 2");
        let zero = b.add_state("0", Output::False);
        let one = b.add_state("1", Output::False);
        let two = b.add_state("2", Output::True);
        b.add_transition((one, one), (zero, two)).unwrap();
        b.add_transition((zero, two), (two, two)).unwrap();
        b.add_transition((one, two), (two, two)).unwrap();
        b.set_input_state("x", one);
        b.build().unwrap()
    }

    #[test]
    fn backward_basis_is_an_antichain_of_coverers() {
        let p = threshold2_protocol();
        // Target: cover one agent in state 2.
        let basis = backward_coverability(&p, &[vec![0, 0, 1]], &SymbolicLimits::default());
        assert!(basis.complete);
        for a in &basis.minimal {
            for b in &basis.minimal {
                if a != b {
                    assert!(!a.iter().zip(b).all(|(x, y)| x <= y), "{a:?} ≤ {b:?}");
                }
            }
        }
        // ⟨2·q1⟩ can produce a q2; a single q1 cannot.
        assert!(basis.contains_counts(&[0, 2, 0]));
        assert!(basis.contains_counts(&[0, 0, 1]));
        assert!(!basis.contains_counts(&[0, 1, 0]));
        assert!(!basis.contains_counts(&[5, 0, 0]));
    }

    #[test]
    fn symbolic_stable_set_of_threshold_protocol() {
        let p = threshold2_protocol();
        let sc1 = symbolic_stable_sets(&p, Output::True, &SymbolicLimits::default()).unwrap();
        assert!(sc1.exact);
        // 1-stable configurations are exactly ⟨k·q2⟩: no agent outside q2,
        // since any q0/q1 agent either is a 0-output agent already or lets
        // the population produce one.
        assert!(sc1.set.contains(&Config::from_counts(vec![0, 0, 50])));
        assert!(!sc1.set.contains(&Config::from_counts(vec![1, 0, 50])));
        assert!(!sc1.set.contains(&Config::from_counts(vec![0, 1, 50])));

        let sc0 = symbolic_stable_sets(&p, Output::False, &SymbolicLimits::default()).unwrap();
        assert!(sc0.exact);
        // 0-stable: no q2 agent and at most one q1 agent (two q1s make a q2).
        assert!(sc0.set.contains(&Config::from_counts(vec![9, 1, 0])));
        assert!(!sc0.set.contains(&Config::from_counts(vec![0, 2, 0])));
        assert!(!sc0.set.contains(&Config::from_counts(vec![9, 0, 1])));
    }

    #[test]
    fn complement_handles_degenerate_bases() {
        let limits = SymbolicLimits::default();
        // Empty basis: nothing is coverable, the complement is everything.
        let all = complement_of_upward(&[], 2, &limits).unwrap();
        assert!(all.contains(&Config::from_counts(vec![7, 7])));
        // All-zero element: everything is covered, the complement is empty.
        let none = complement_of_upward(&[vec![0, 0]], 2, &limits).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn basis_cap_reports_incomplete() {
        let p = threshold2_protocol();
        let limits = SymbolicLimits {
            max_backward_basis: 0,
            ..SymbolicLimits::default()
        };
        let basis = backward_coverability(&p, &[vec![0, 0, 1]], &limits);
        assert!(!basis.complete);
    }
}
