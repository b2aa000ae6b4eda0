//! The in-band control channel (§4.2): what two nodes tell each other at
//! the start of a contact, within the channel mode's byte budget, and how
//! each node's control state is kept bounded afterwards.

use super::ContactExec;
use crate::config::{wire, ChannelMode};
use crate::control::HolderEntry;
use dtn_sim::{ContactDriver, NodeId, PacketId, Time};
use std::sync::atomic::Ordering;

/// Relative change below which a refreshed delay estimate is not
/// republished (keeps the delta channel quiet when nothing moved).
const PUBLISH_THRESHOLD: f64 = 1.0;

/// Fraction of each opportunity available to third-party replica gossip
/// ("information about other packets", §4.2). Bounding this class keeps
/// total metadata at the paper's percent-of-data scale; see
/// `exchange_metadata`.
const THIRD_PARTY_FRACTION: f64 = 0.02;

/// Reusable listings of one exchange direction (§4.2 delta channel).
#[derive(Default)]
pub(super) struct ExchangeScratch {
    acks_new: Vec<PacketId>,
    changed_rows: Vec<NodeId>,
    changed: Vec<(PacketId, usize, Time)>,
    own_changed: Vec<(PacketId, usize, Time)>,
    third_changed: Vec<(PacketId, usize, Time)>,
    purge: Vec<PacketId>,
}

impl ContactExec<'_> {
    /// Closes Step 1: evicts `x`'s packets known to be delivered (by its
    /// acks; by ground truth on the instant global channel).
    pub(super) fn purge_delivered(
        &mut self,
        driver: &mut ContactDriver<'_>,
        x: NodeId,
        scratch: &mut ExchangeScratch,
    ) {
        // Filter while iterating; only the (few) hits are collected into
        // reusable scratch — the eviction below mutates the buffer, so a
        // snapshot of the hits is still required.
        let purge = &mut scratch.purge;
        purge.clear();
        let (is_global, state) = (self.is_global(), self.states.state(x));
        purge.extend(driver.buffer(x).iter().map(|(id, _)| id).filter(|&id| {
            if is_global {
                driver.global().is_delivered(id)
            } else {
                state.acks.contains(id)
            }
        }));
        for &id in purge.iter() {
            driver.evict(x, id);
            self.states.state_mut(x).meta.remove_packet(id);
        }
    }

    /// Bounds each endpoint's control state (§4.2 table cap).
    pub(super) fn bound_meta(&mut self, driver: &ContactDriver<'_>, a: NodeId, b: NodeId) {
        for x in [a, b] {
            let cap = self.cfg.meta_entry_cap;
            let buffer = driver.buffer(x);
            self.states
                .state_mut(x)
                .meta
                .prune(cap, |id| buffer.contains(id));
        }
    }

    /// Refreshes this node's own delay estimate for a packet in the gossip
    /// table, if it moved by more than [`PUBLISH_THRESHOLD`].
    pub(super) fn publish_estimate(&mut self, x: NodeId, id: PacketId, a_self: f64, now: Time) {
        let st = self.states.state_mut(x);
        let stale = match st.meta.get(id).and_then(|b| b.entry(x)) {
            Some(e) => {
                let old = e.delay_secs;
                !(old.is_finite() && a_self.is_finite())
                    || (old - a_self).abs() > PUBLISH_THRESHOLD * old.abs().max(1.0)
            }
            None => true,
        };
        if stale && a_self.is_finite() {
            st.meta.upsert(
                id,
                HolderEntry {
                    holder: x,
                    delay_secs: a_self,
                    stamp: now,
                },
            );
        }
    }

    /// Step 1: the metadata exchange in one direction, within the channel
    /// mode's byte budget (the instant global channel exchanges nothing).
    /// Priority order: acks, meeting rows + opportunity averages, replica
    /// entries (own-buffer packets first). The watermark only advances
    /// when everything fit (§4.2's delta exchange).
    pub(super) fn exchange_metadata(
        &mut self,
        driver: &mut ContactDriver<'_>,
        from: NodeId,
        to: NodeId,
        full_opp: u64,
        scratch: &mut ExchangeScratch,
    ) {
        let (budget, local_only) = match self.cfg.channel {
            ChannelMode::InBand { cap_fraction } => {
                let capped = cap_fraction.map(|f| (f * full_opp as f64) as u64);
                (capped.unwrap_or(u64::MAX), false)
            }
            ChannelMode::LocalOnly => (u64::MAX, true),
            ChannelMode::InstantGlobal => return,
        };
        let now = driver.now();
        let mut allowed = budget.min(driver.remaining_bytes(from));
        let mut used = 0u64;
        let mut truncated = false;
        let since = self.states.state(from).last_sent_to(to);

        // 1. Acknowledgments.
        {
            let (from_st, to_st) = self.states.two(from, to);
            scratch.acks_new.clear();
            scratch
                .acks_new
                .extend(from_st.acks.difference(&to_st.acks));
            for &id in scratch.acks_new.iter() {
                if allowed < wire::ACK_BYTES {
                    truncated = true;
                    break;
                }
                to_st.acks.insert(id);
                to_st.meta.remove_packet(id);
                allowed -= wire::ACK_BYTES;
                used += wire::ACK_BYTES;
            }
        }

        // 2. Meeting-time rows changed since the watermark.
        {
            let n = self.n as u64;
            let row_cost = n * wire::MEETING_ENTRY_BYTES;
            if full_opp < row_cost && !self.row_warned.load(Ordering::Relaxed) {
                self.warn_row_exceeds_opportunity(row_cost, full_opp);
            }
            self.states
                .state(from)
                .meetings
                .rows_changed_since_into(since, &mut scratch.changed_rows);
            for &row in scratch.changed_rows.iter() {
                if allowed < row_cost {
                    truncated = true;
                    break;
                }
                let (from_st, to_st) = self.states.two(from, to);
                to_st.meetings.merge_rows_from(&from_st.meetings, &[row]);
                allowed -= row_cost;
                used += row_cost;
            }
            // Opportunity averages changed since the watermark, in node
            // order, `AVG_OPP_BYTES` each, as many as the budget holds:
            // the stamp column says which, the value column rides along.
            let (from_st, to_st) = self.states.two(from, to);
            let (shipped, more_waiting) = from_st.believed_opp.ship_into(
                &mut to_st.believed_opp,
                since,
                allowed / wire::AVG_OPP_BYTES,
                self.kernel,
            );
            truncated |= more_waiting;
            allowed -= shipped * wire::AVG_OPP_BYTES;
            used += shipped * wire::AVG_OPP_BYTES;
        }

        // 3. Replica entries. Two classes, following §4.2:
        //
        //    * "For each of its own packets, the updated delivery delay
        //      estimate" — packets this node originated (and, for
        //      rapid-local, everything currently in its buffer). These are
        //      few, so they go watermark-complete, oldest change first.
        //    * "Information about other packets if modified since last
        //      exchange" — the transitive gossip. Its global volume is
        //      proportional to the network-wide replication rate, so it is
        //      shipped newest-first under a small per-contact budget
        //      (THIRD_PARTY_FRACTION of the opportunity); older changes age
        //      out rather than queue forever. This bounding is what keeps
        //      metadata at the paper's ~percent-of-data scale (Table 3);
        //      see EXPERIMENTS.md, "Deviations from the paper".
        let mut entry_watermark = now;
        {
            self.states
                .state(from)
                .meta
                .changed_since_into(since, &mut scratch.changed);
            scratch.own_changed.clear();
            scratch.third_changed.clear();
            for &(id, n_entries, changed_at) in scratch.changed.iter() {
                let buffered = driver.buffer(from).contains(id);
                if local_only {
                    if buffered {
                        scratch.own_changed.push((id, n_entries, changed_at));
                    }
                    continue;
                }
                if driver.packets().get(id).src == from {
                    scratch.own_changed.push((id, n_entries, changed_at));
                } else {
                    scratch.third_changed.push((id, n_entries, changed_at));
                }
            }

            // Own/buffered estimates: complete, oldest first, watermarked.
            let mut sent_through = since;
            let mut entries_truncated = false;
            for &(id, n_entries, changed_at) in scratch.own_changed.iter() {
                let cost = n_entries as u64 * wire::META_ENTRY_BYTES;
                if allowed < cost {
                    entries_truncated = true;
                    break;
                }
                self.ship_belief(from, to, id, since);
                allowed -= cost;
                used += cost;
                sent_through = sent_through.max(changed_at);
            }
            if entries_truncated {
                truncated = true;
                entry_watermark = sent_through;
            }

            // Third-party gossip: newest first, bounded.
            let gossip_budget = ((full_opp as f64 * THIRD_PARTY_FRACTION) as u64).min(allowed);
            let mut gossip_left = gossip_budget;
            for &(id, n_entries, _) in scratch.third_changed.iter().rev() {
                let cost = n_entries as u64 * wire::META_ENTRY_BYTES;
                if gossip_left < cost {
                    break;
                }
                self.ship_belief(from, to, id, since);
                gossip_left -= cost;
                used += cost;
            }
        }

        driver.charge_metadata(from, used);
        // Advance the watermark to cover everything actually shipped; a
        // truncated exchange resumes from where it stopped next time.
        let sent_through = if truncated {
            entry_watermark.min(now)
        } else {
            now
        };
        self.states.state_mut(from).set_last_sent(to, sent_through);
    }

    /// One-shot notice that meeting rows cannot ship on this shape: a row
    /// is charged `n × MEETING_ENTRY_BYTES` and must fit the opportunity
    /// whole, so when a whole opportunity is smaller no row ever merges
    /// and every h-hop estimate degrades to the one-hop own row.
    #[cold]
    fn warn_row_exceeds_opportunity(&self, row_cost: u64, opportunity: u64) {
        // Relaxed: the flag publishes nothing, it only keeps later
        // contacts off the diag mutex (`warn_once` itself dedups racers).
        self.row_warned.store(true, Ordering::Relaxed);
        dtn_sim::diag::warn_once(
            "meeting-row-exceeds-opportunity",
            "a transfer opportunity is smaller than one meeting row: such contacts carry no \
             rows, and where every opportunity is this small h-hop estimates rest on direct \
             meetings only",
            &[
                ("row_cost", row_cost.to_string()),
                ("opportunity", opportunity.to_string()),
            ],
        );
    }

    /// Copies `from`'s belief entries about `id` newer than `since` into
    /// `to`'s table (unless the peer already knows the packet delivered).
    fn ship_belief(&mut self, from: NodeId, to: NodeId, id: PacketId, since: Time) {
        let (from_st, to_st) = self.states.two(from, to);
        if let Some(belief) = from_st.meta.get(id) {
            if !to_st.acks.contains(id) {
                to_st.meta.merge_packet_from(id, belief, since);
            }
        }
    }
}
