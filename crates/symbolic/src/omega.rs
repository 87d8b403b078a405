//! ω-configurations as flat rows, and the interning [`OmegaArena`].
//!
//! An ω-configuration is an element of `(N ∪ {ω})^Q`; the forward
//! acceleration of [`crate::cover`] and the backward antichains of
//! [`crate::backward`] manipulate hundreds to thousands of them.  Mirroring
//! `popproto_reach::ConfigArena`'s flat-buffer design, a set of rows lives
//! inside one backing buffer with stride `|Q|` — `u32` rows with the
//! sentinel [`OMEGA`] for the forward cover, `u64` rows with [`OMEGA64`]
//! for the backward bases and their complements.  Both sentinels are the
//! largest value of their type, so the ω order is the plain pointwise order
//! (`k ≤ ω` for every finite `k`, and `min(k, ω) = k`): subsumption checks,
//! intersections and membership tests are allocation-free slice walks.
//! Deduplication in the arena goes through an open-addressed table that
//! hashes the raw slices.

use popproto_vas::{DownwardClosedSet, Ideal};

/// The `ω` sentinel of `u32` rows: a count of `u32::MAX` means "unbounded".
///
/// Finite counts must stay strictly below this value; the arena and the
/// Karp–Miller loop enforce the invariant.
pub const OMEGA: u32 = u32::MAX;

/// The `ω` sentinel of `u64` rows (backward bases and stable-set ideals).
pub const OMEGA64: u64 = u64::MAX;

/// Pointwise order on ω-rows: `a ≤ b` with `k ≤ ω` for every finite `k`.
///
/// Because [`OMEGA`] is `u32::MAX`, this is the plain pointwise `≤`.
pub fn row_leq<T: Copy + Ord>(a: &[T], b: &[T]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Converts an ω-row into the [`Ideal`] of configurations below it.
pub fn row_to_ideal(row: &[u32]) -> Ideal {
    Ideal::new(
        row.iter()
            .map(|&c| if c == OMEGA { None } else { Some(c as u64) })
            .collect(),
    )
}

/// Collects the `u64` ω-rows of a flat buffer (stride `num_states`) into a
/// canonical [`DownwardClosedSet`].
pub(crate) fn rows64_to_set(rows: &[u64], num_states: usize) -> DownwardClosedSet {
    let mut set = DownwardClosedSet::empty();
    for row in rows.chunks_exact(num_states) {
        set.insert(Ideal::new(
            row.iter().map(|&c| (c != OMEGA64).then_some(c)).collect(),
        ));
    }
    set.canonicalize();
    set
}

/// Flattens the ideals of a set into `u64` ω-rows.
pub(crate) fn set_to_rows64(set: &DownwardClosedSet) -> Vec<u64> {
    set.ideals()
        .iter()
        .flat_map(|ideal| ideal.bounds().iter().map(|b| b.unwrap_or(OMEGA64)))
        .collect()
}

/// Adds `row` to the antichain of **maximal** rows in `rows` (stride
/// `row.len()`): nothing happens if an existing row dominates it; otherwise
/// every row it dominates is removed (survivors keep their order) and it is
/// appended.  Returns `true` if the row was added.
pub(crate) fn insert_maximal(rows: &mut Vec<u64>, row: &[u64]) -> bool {
    insert_extremal(rows, row, |a, b| row_leq(b, a))
}

/// Adds `row` to the antichain of **minimal** rows in `rows`, the order
/// dual of [`insert_maximal`].  Returns `true` if the row was added.
pub(crate) fn insert_minimal(rows: &mut Vec<u64>, row: &[u64]) -> bool {
    insert_extremal(rows, row, row_leq)
}

/// Adds `row` to the antichain of `below`-minimal rows: rejected if some row
/// is `below` it, otherwise appended after removing every row it is below.
fn insert_extremal(
    rows: &mut Vec<u64>,
    row: &[u64],
    below: impl Fn(&[u64], &[u64]) -> bool,
) -> bool {
    let n = row.len();
    if rows.chunks_exact(n).any(|r| below(r, row)) {
        return false;
    }
    retain_rows(rows, n, |r| !below(row, r));
    rows.extend_from_slice(row);
    true
}

/// Keeps the rows (stride `n`) satisfying `keep`, in order, in place.
fn retain_rows(rows: &mut Vec<u64>, n: usize, keep: impl Fn(&[u64]) -> bool) {
    let mut write = 0;
    for read in (0..rows.len()).step_by(n) {
        if keep(&rows[read..read + n]) {
            rows.copy_within(read..read + n, write);
            write += n;
        }
    }
    rows.truncate(write);
}

/// Interns ω-rows (count vectors over a fixed state set, with [`OMEGA`]
/// entries) as dense `u32` identifiers backed by a single flat buffer.
///
/// # Examples
///
/// ```
/// use popproto_symbolic::{OmegaArena, OMEGA};
///
/// let mut arena = OmegaArena::new(3);
/// let (a, fresh_a) = arena.intern(&[2, OMEGA, 1]);
/// let (b, fresh_b) = arena.intern(&[2, OMEGA, 1]);
/// assert_eq!(a, b);
/// assert!(fresh_a && !fresh_b);
/// assert_eq!(arena.row(a), &[2, OMEGA, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct OmegaArena {
    num_states: usize,
    /// Backing buffer: row `id` occupies
    /// `rows[id * num_states .. (id + 1) * num_states]`.
    rows: Vec<u32>,
    /// Open-addressed table of `id + 1` entries (`0` marks an empty slot).
    table: Vec<u32>,
    mask: usize,
    len: usize,
}

const INITIAL_TABLE: usize = 64;

impl OmegaArena {
    /// Creates an empty arena over `num_states` states.
    pub fn new(num_states: usize) -> Self {
        OmegaArena {
            num_states,
            rows: Vec::new(),
            table: vec![0; INITIAL_TABLE],
            mask: INITIAL_TABLE - 1,
            len: 0,
        }
    }

    /// Empties the arena and sets its dimension, keeping the row buffer's
    /// allocation for reuse.
    pub fn clear(&mut self, num_states: usize) {
        self.num_states = num_states;
        self.rows.clear();
        self.table.clear();
        self.table.resize(INITIAL_TABLE, 0);
        self.mask = INITIAL_TABLE - 1;
        self.len = 0;
    }

    /// The raw backing buffer: every interned row in id order, stride
    /// [`OmegaArena::num_states`].
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The dimension (number of states) of the interned rows.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of distinct rows interned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no row has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw slice of row `id`.
    pub fn row(&self, id: u32) -> &[u32] {
        let start = id as usize * self.num_states;
        &self.rows[start..start + self.num_states]
    }

    /// Iterates over all interned rows as `(id, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        (0..self.len() as u32).map(move |id| (id, self.row(id)))
    }

    fn hash_slice(slice: &[u32]) -> u64 {
        // FNV-1a over the count words, as in `ConfigArena`.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &c in slice {
            h ^= c as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The identifier of `slice`, if it has been interned.
    pub fn lookup(&self, slice: &[u32]) -> Option<u32> {
        debug_assert_eq!(slice.len(), self.num_states);
        let mut idx = Self::hash_slice(slice) as usize & self.mask;
        loop {
            match self.table[idx] {
                0 => return None,
                entry => {
                    let id = entry - 1;
                    if self.row(id) == slice {
                        return Some(id);
                    }
                }
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Interns `slice`, returning its identifier and whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if `slice` has the wrong dimension.
    pub fn intern(&mut self, slice: &[u32]) -> (u32, bool) {
        assert_eq!(slice.len(), self.num_states, "dimension mismatch");
        let mut idx = Self::hash_slice(slice) as usize & self.mask;
        loop {
            match self.table[idx] {
                0 => break,
                entry => {
                    let id = entry - 1;
                    if self.row(id) == slice {
                        return (id, false);
                    }
                }
            }
            idx = (idx + 1) & self.mask;
        }
        let id = self.len as u32;
        self.rows.extend_from_slice(slice);
        self.table[idx] = id + 1;
        self.len += 1;
        if (self.len + 1) * 4 >= self.table.len() * 3 {
            self.grow();
        }
        (id, true)
    }

    fn grow(&mut self) {
        let new_size = self.table.len() * 2;
        self.table.clear();
        self.table.resize(new_size, 0);
        self.mask = new_size - 1;
        for id in 0..self.len() as u32 {
            let mut idx = Self::hash_slice(self.row(id)) as usize & self.mask;
            while self.table[idx] != 0 {
                idx = (idx + 1) & self.mask;
            }
            self.table[idx] = id + 1;
        }
    }

    /// Approximate heap usage in bytes (backing buffer plus hash table).
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u32>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates_omega_rows() {
        let mut arena = OmegaArena::new(2);
        let (a, fresh_a) = arena.intern(&[OMEGA, 3]);
        let (b, fresh_b) = arena.intern(&[3, OMEGA]);
        let (a2, fresh_a2) = arena.intern(&[OMEGA, 3]);
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.lookup(&[OMEGA, 3]), Some(a));
        assert_eq!(arena.lookup(&[0, 0]), None);
        assert!(arena.heap_bytes() > 0);
    }

    #[test]
    fn row_order_with_omega() {
        assert!(row_leq(&[1, 2], &[1, OMEGA]));
        assert!(row_leq(&[OMEGA, 0], &[OMEGA, 1]));
        assert!(!row_leq(&[OMEGA, 0], &[5, 0]));
        assert!(!row_leq(&[2, 0], &[1, OMEGA]));
    }

    #[test]
    fn ideal_conversion() {
        let ideal = row_to_ideal(&[2, OMEGA]);
        assert_eq!(ideal.bounds(), &[Some(2), None]);
    }

    #[test]
    fn antichain_inserts_keep_extremal_rows_in_order() {
        let mut min = Vec::new();
        assert!(insert_minimal(&mut min, &[2, 0]));
        assert!(insert_minimal(&mut min, &[0, 3]));
        assert!(!insert_minimal(&mut min, &[2, 1]), "above [2, 0]");
        assert!(!insert_minimal(&mut min, &[0, 3]), "already present");
        assert!(insert_minimal(&mut min, &[1, 0]), "below [2, 0]");
        assert_eq!(min, [0, 3, 1, 0]);

        let mut max = vec![OMEGA64, 1, 4, OMEGA64];
        assert!(!insert_maximal(&mut max, &[7, 0]));
        assert!(insert_maximal(&mut max, &[OMEGA64, 2]));
        assert_eq!(max, [4, OMEGA64, OMEGA64, 2]);
        assert_eq!(
            set_to_rows64(&rows64_to_set(&max, 2)),
            max,
            "canonical order"
        );
    }

    #[test]
    fn clear_reuses_the_arena_at_a_new_dimension() {
        let mut arena = OmegaArena::new(2);
        for i in 0..100 {
            arena.intern(&[i, OMEGA]);
        }
        arena.clear(3);
        assert!(arena.is_empty());
        assert_eq!(arena.lookup(&[0, OMEGA, 0]), None);
        assert_eq!(arena.intern(&[0, OMEGA, 0]), (0, true));
        assert_eq!(arena.rows(), &[0, OMEGA, 0]);
    }

    #[test]
    fn survives_rehashing() {
        let mut arena = OmegaArena::new(3);
        let mut ids = Vec::new();
        for i in 0..5_000u32 {
            let row = [i, i % 7, if i % 3 == 0 { OMEGA } else { i % 5 }];
            let (id, fresh) = arena.intern(&row);
            assert!(fresh);
            ids.push((id, row));
        }
        for (id, row) in &ids {
            assert_eq!(arena.lookup(row), Some(*id));
            assert_eq!(arena.row(*id), row);
        }
        let collected: Vec<u32> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(collected.len(), 5_000);
    }
}
