//! Believed opportunity averages (§4.2): what one node thinks every
//! node's average transfer-opportunity size is, and the budgeted merge
//! that ships the fresh ones to a peer at the start of a contact.
//!
//! Two columns — values and change stamps — rather than one vector of
//! pairs, so the merge is integer compares and copies over contiguous
//! lanes. Nothing here does floating-point arithmetic: every [`Kernel`]
//! moves the same bits.

use crate::estimate::Kernel;
use dtn_sim::Time;

/// Entries per merge step: whole steps run branch-free, and only the one
/// step on which the byte budget runs out takes the per-entry loop.
const BLOCK: usize = 32;

/// One node's believed average opportunity size of every node, with the
/// instant each belief was formed. Dense (`n` entries per column, 16 B × n
/// together) on purpose: opportunity averages gossip fleet-wide, and by
/// the end of a regional pass a node was measured to know 383 of 400
/// entries (868 of 1200), so a sorted sparse form at 20 B per entry would
/// save nothing there. A never-heard entry is `(0.0, Time::ZERO)`.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct OppBeliefs {
    vals: Vec<f64>,
    stamps: Vec<Time>,
}

impl OppBeliefs {
    pub(super) fn new(n: usize) -> Self {
        Self {
            vals: vec![0.0; n],
            stamps: vec![Time::ZERO; n],
        }
    }

    pub(super) fn len(&self) -> usize {
        self.vals.len()
    }

    /// The belief about node `i`: `(bytes, formed_at)`.
    pub(super) fn get(&self, i: usize) -> (f64, Time) {
        (self.vals[i], self.stamps[i])
    }

    pub(super) fn set(&mut self, i: usize, bytes: f64, formed_at: Time) {
        self.vals[i] = bytes;
        self.stamps[i] = formed_at;
    }

    /// Ships to `to` the first `max_entries` beliefs formed after `since`,
    /// in ascending node order; a shipped belief replaces the receiver's
    /// only if it is newer, and counts against the budget either way.
    /// Returns how many shipped and whether a fresh one was left behind.
    #[allow(unsafe_code)]
    pub(super) fn ship_into(
        &self,
        to: &mut OppBeliefs,
        since: Time,
        max_entries: u64,
        kernel: Kernel,
    ) -> (u64, bool) {
        assert_eq!(self.len(), to.len(), "belief columns of two fleets");
        let from = (self.vals.as_slice(), self.stamps.as_slice());
        let to = (to.vals.as_mut_slice(), to.stamps.as_mut_slice());
        match kernel {
            Kernel::Scalar => ship_blocks(from, to, since, max_entries),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                kernel.assert_supported();
                // SAFETY: `assert_supported` returned, so AVX2 was detected.
                unsafe { ship_blocks_avx2(from, to, since, max_entries) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => unreachable!("Avx2 is never selected off x86-64"),
        }
    }

    /// The exchange loop as it was written over `(f64, Time)` pairs —
    /// the oracle [`Self::ship_into`] is tested against.
    #[cfg(test)]
    fn ship_reference(&self, to: &mut OppBeliefs, since: Time, max_entries: u64) -> (u64, bool) {
        const AVG_OPP_BYTES: u64 = crate::config::wire::AVG_OPP_BYTES;
        let mut allowed = max_entries * AVG_OPP_BYTES;
        let mut used = 0;
        let mut truncated = false;
        let mut theirs: Vec<(f64, Time)> = (0..to.len()).map(|i| to.get(i)).collect();
        let mine: Vec<(f64, Time)> = (0..self.len()).map(|i| self.get(i)).collect();
        for (&(v, stamp), theirs) in mine.iter().zip(&mut theirs) {
            if stamp <= since {
                continue;
            }
            if allowed < AVG_OPP_BYTES {
                truncated = true;
                break;
            }
            if stamp > theirs.1 {
                *theirs = (v, stamp);
            }
            allowed -= AVG_OPP_BYTES;
            used += AVG_OPP_BYTES;
        }
        for (i, (v, stamp)) in theirs.into_iter().enumerate() {
            to.set(i, v, stamp);
        }
        (used / AVG_OPP_BYTES, truncated)
    }
}

/// A sender's columns, and a receiver's; all four slices equally long.
type Cols<'a> = (&'a [f64], &'a [Time]);
type ColsMut<'a> = (&'a mut [f64], &'a mut [Time]);

/// The body of [`OppBeliefs::ship_into`], instantiated once per kernel.
#[inline(always)]
fn ship_blocks(from: Cols<'_>, to: ColsMut<'_>, since: Time, max_entries: u64) -> (u64, bool) {
    let mine = from.0.chunks(BLOCK).zip(from.1.chunks(BLOCK));
    let theirs = to.0.chunks_mut(BLOCK).zip(to.1.chunks_mut(BLOCK));
    let mut shipped = 0u64;
    for ((fv, fs), (tv, ts)) in mine.zip(theirs) {
        match merge_if_fits(fv, fs, tv, ts, since, max_entries - shipped) {
            Some(fresh) => shipped += fresh,
            None => return (max_entries, true),
        }
    }
    (shipped, false)
}

/// One block: merges all its beliefs formed after `since` if no more than
/// `room` are (returning their count), else the first `room` of them.
#[inline(always)]
fn merge_if_fits(
    fv: &[f64],
    fs: &[Time],
    tv: &mut [f64],
    ts: &mut [Time],
    since: Time,
    room: u64,
) -> Option<u64> {
    // One length for all four, so the loops below index without checks.
    let n = fs.len();
    let (fv, tv, ts) = (&fv[..n], &mut tv[..n], &mut ts[..n]);
    let fresh: u64 = fs.iter().map(|&s| u64::from(s > since)).sum();
    if fresh <= room {
        // Stores are unconditional (an entry not taken is written back
        // as it was): skipping blocks with nothing to take measured
        // slower than storing them.
        for i in 0..n {
            let take = (fs[i] > since) & (fs[i] > ts[i]);
            tv[i] = if take { fv[i] } else { tv[i] };
            ts[i] = if take { fs[i] } else { ts[i] };
        }
        return Some(fresh);
    }
    let mut left = room;
    for i in 0..n {
        if fs[i] <= since {
            continue;
        }
        if left == 0 {
            break;
        }
        if fs[i] > ts[i] {
            (tv[i], ts[i]) = (fv[i], fs[i]);
        }
        left -= 1;
    }
    None
}

/// [`ship_blocks`] compiled with AVX2 enabled: the 64-bit compares and
/// selects of a block become `vpcmpgtq` / `vblendvpd` over four entries
/// each (baseline x86-64 has no 64-bit vector compare, and the same body
/// built without the feature stays scalar).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn ship_blocks_avx2(from: Cols<'_>, to: ColsMut<'_>, since: Time, max_entries: u64) -> (u64, bool) {
    ship_blocks(from, to, since, max_entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Columns of `n` beliefs from `(stamp, value bits)` cells.
    fn beliefs(cells: impl Iterator<Item = (u64, u64)>) -> OppBeliefs {
        let (stamps, vals): (Vec<Time>, Vec<f64>) =
            cells.map(|(s, v)| (Time(s), f64::from_bits(v))).unzip();
        OppBeliefs { vals, stamps }
    }

    fn bits(b: &OppBeliefs) -> (Vec<u64>, &[Time]) {
        (b.vals.iter().map(|v| v.to_bits()).collect(), &b.stamps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both instantiations against the per-entry loop, at every budget
        /// from nothing to more than everything — so the budget runs out
        /// on the first, a middle and the last fresh entry of every block,
        /// and fits exactly. Stamps are drawn from six instants, so ties
        /// with `since` and with the receiver's stamp are the common case.
        #[test]
        fn ship_into_matches_the_per_entry_loop(
            n in prop_oneof![
                Just(0usize), Just(1usize), Just(31usize), Just(32usize), Just(33usize),
                Just(400usize), 0usize..130
            ],
            cells in prop::collection::vec((0u64..6, 0u64..6, any::<u64>(), any::<u64>()), 400),
            since in 0u64..6,
        ) {
            let from = beliefs(cells[..n].iter().map(|c| (c.0, c.2)));
            let to = beliefs(cells[..n].iter().map(|c| (c.1, c.3)));
            let since = Time(since);
            let fresh = from.stamps.iter().filter(|&&s| s > since).count() as u64;
            for budget in 0..=fresh + 2 {
                let mut expect = to.clone();
                let (shipped, more) = from.ship_reference(&mut expect, since, budget);
                prop_assert_eq!((shipped, more), (budget.min(fresh), budget < fresh));
                for kernel in [Kernel::Scalar, Kernel::detect()] {
                    let mut got = to.clone();
                    let outcome = from.ship_into(&mut got, since, budget, kernel);
                    prop_assert_eq!(outcome, (shipped, more), "{:?} n={} budget={}", kernel, n, budget);
                    prop_assert_eq!(bits(&got), bits(&expect), "{:?} n={} budget={}", kernel, n, budget);
                }
            }
        }
    }
}
