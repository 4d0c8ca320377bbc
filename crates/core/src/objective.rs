//! System objectives: delivery rate and total earning (§4.1).
//!
//! * **Delivery rate** (PSD): `Σ ds_i / Σ ts_i` over published messages,
//!   where `ts_i` is the number of subscribers interested in message `i` and
//!   `ds_i` the number that received it before the deadline (eq. 1).
//! * **Total earning** (SSD): `Σ price(s_i) · msg(s_i)` over subscribers,
//!   where `msg(s_i)` counts valid (on-time) deliveries (eq. 2).
//!
//! The tracker computes both at once so that any scenario can report either.

use bdps_types::id::{MessageId, SubscriberId};
use bdps_types::money::{Earning, Price};
use bdps_types::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Per-message delivery bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct MessageStat {
    interested: u32,
    delivered_on_time: u32,
    delivered_late: u32,
}

/// Tracks the paper's objective functions over a run.
#[derive(Debug, Clone, Default)]
pub struct ObjectiveTracker {
    messages: HashMap<MessageId, MessageStat>,
    per_subscriber_valid: HashMap<SubscriberId, u64>,
    total_earning: Earning,
    delay_sum_ms: f64,
    delay_count: u64,
    /// Every (message, subscriber) pair seen so far — the audit trail behind
    /// the no-duplicate-delivery invariant, which dynamic scenarios (churn,
    /// link failures with requeues) could otherwise silently break.
    seen_pairs: HashSet<(MessageId, SubscriberId)>,
    duplicate_deliveries: u64,
    /// The first few offending pairs (capped at
    /// [`DUPLICATE_SAMPLE_CAP`]), so violation reports can name the exact
    /// message/subscriber instead of only a count.
    duplicate_pairs: Vec<(MessageId, SubscriberId)>,
}

/// How many duplicate (message, subscriber) pairs are retained verbatim for
/// violation reports; beyond this only the count grows.
const DUPLICATE_SAMPLE_CAP: usize = 8;

impl ObjectiveTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a published message together with the number of subscribers
    /// interested in it (`ts_i`), evaluated against the global subscription
    /// population at publication time.
    pub fn register_message(&mut self, id: MessageId, interested: u32) {
        self.messages.entry(id).or_default().interested = interested;
    }

    /// Adds to a message's interested count after registration. Aggregate
    /// forwarding uses this: the publish path cannot know `ts_i` without the
    /// global walk it exists to avoid, so each edge broker contributes its
    /// expansion's match count as the copies arrive. The resulting total
    /// counts only members whose copies reached their edge — a lower bound
    /// on the exact mode's `ts_i`.
    pub fn add_interested(&mut self, id: MessageId, n: u32) {
        self.messages.entry(id).or_default().interested += n;
    }

    /// Every (message, subscriber) pair delivered so far — on time or late —
    /// in sorted order. The delivery-*set* oracle: forwarding modes may
    /// differ in traffic, hops and timing, but must deliver exactly the same
    /// pair set.
    pub fn delivered_pairs(&self) -> Vec<(MessageId, SubscriberId)> {
        let mut pairs: Vec<(MessageId, SubscriberId)> = self.seen_pairs.iter().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Records a delivery attempt that reached the subscriber.
    pub fn record_delivery(
        &mut self,
        message: MessageId,
        subscriber: SubscriberId,
        price: Price,
        delay: Duration,
        on_time: bool,
    ) {
        if !self.seen_pairs.insert((message, subscriber)) {
            self.duplicate_deliveries += 1;
            if self.duplicate_pairs.len() < DUPLICATE_SAMPLE_CAP {
                self.duplicate_pairs.push((message, subscriber));
            }
        }
        let stat = self.messages.entry(message).or_default();
        if on_time {
            stat.delivered_on_time += 1;
            *self.per_subscriber_valid.entry(subscriber).or_insert(0) += 1;
            self.total_earning.credit(price);
            self.delay_sum_ms += delay.as_millis_f64();
            self.delay_count += 1;
        } else {
            stat.delivered_late += 1;
        }
    }

    /// Number of registered (published) messages.
    pub fn published_messages(&self) -> usize {
        self.messages.len()
    }

    /// Total interested (message, subscriber) pairs — `Σ ts_i`.
    pub fn total_interested(&self) -> u64 {
        self.messages.values().map(|m| m.interested as u64).sum()
    }

    /// Total on-time deliveries — `Σ ds_i`.
    pub fn total_on_time(&self) -> u64 {
        self.messages
            .values()
            .map(|m| m.delivered_on_time as u64)
            .sum()
    }

    /// Total deliveries that arrived after their deadline.
    pub fn total_late(&self) -> u64 {
        self.messages
            .values()
            .map(|m| m.delivered_late as u64)
            .sum()
    }

    /// The delivery rate of eq. (1), in `[0, 1]`; zero when nothing was published.
    pub fn delivery_rate(&self) -> f64 {
        let interested = self.total_interested();
        if interested == 0 {
            return 0.0;
        }
        self.total_on_time() as f64 / interested as f64
    }

    /// The total earning of eq. (2).
    pub fn total_earning(&self) -> Earning {
        self.total_earning
    }

    /// Valid deliveries per subscriber (`msg(s_i)`).
    pub fn valid_deliveries_of(&self, subscriber: SubscriberId) -> u64 {
        self.per_subscriber_valid
            .get(&subscriber)
            .copied()
            .unwrap_or(0)
    }

    /// Number of deliveries that reached a (message, subscriber) pair more
    /// than once. Single-path scoped forwarding guarantees this stays zero,
    /// including under churn and link failures; the invariant tests assert it.
    pub fn duplicate_deliveries(&self) -> u64 {
        self.duplicate_deliveries
    }

    /// The first few duplicated (message, subscriber) pairs, for
    /// self-explaining violation reports; empty when the audit is clean.
    pub fn duplicate_samples(&self) -> &[(MessageId, SubscriberId)] {
        &self.duplicate_pairs
    }

    /// Hashes the tracker's complete delivery bookkeeping (message stats,
    /// per-subscriber counts, earning, delay accumulators and the duplicate
    /// audit) in deterministic sorted order, for the model-checking
    /// explorer's state deduplication.
    pub fn state_digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let mut msgs: Vec<(&MessageId, &MessageStat)> = self.messages.iter().collect();
        msgs.sort_unstable_by_key(|(id, _)| **id);
        h.write_usize(msgs.len());
        for (id, stat) in msgs {
            h.write_u64(id.raw());
            h.write_u32(stat.interested);
            h.write_u32(stat.delivered_on_time);
            h.write_u32(stat.delivered_late);
        }
        let mut subs: Vec<(&SubscriberId, &u64)> = self.per_subscriber_valid.iter().collect();
        subs.sort_unstable_by_key(|(s, _)| **s);
        h.write_usize(subs.len());
        for (s, n) in subs {
            h.write_u32(s.raw());
            h.write_u64(*n);
        }
        h.write_u64(self.total_earning.as_f64().to_bits());
        h.write_u64(self.delay_sum_ms.to_bits());
        h.write_u64(self.delay_count);
        h.write_u64(self.duplicate_deliveries);
        let mut pairs: Vec<&(MessageId, SubscriberId)> = self.seen_pairs.iter().collect();
        pairs.sort_unstable();
        h.write_usize(pairs.len());
        for (m, s) in pairs {
            h.write_u64(m.raw());
            h.write_u32(s.raw());
        }
        h.finish()
    }

    /// Mean end-to-end delay of on-time deliveries, in milliseconds.
    pub fn mean_valid_delay_ms(&self) -> f64 {
        if self.delay_count == 0 {
            0.0
        } else {
            self.delay_sum_ms / self.delay_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_rate_follows_equation_1() {
        let mut t = ObjectiveTracker::new();
        t.register_message(MessageId::new(1), 4);
        t.register_message(MessageId::new(2), 2);
        // Message 1 reaches 3 of 4 in time, message 2 reaches 0 of 2.
        for i in 0..3 {
            t.record_delivery(
                MessageId::new(1),
                SubscriberId::new(i),
                Price::unit(),
                Duration::from_secs(5),
                true,
            );
        }
        t.record_delivery(
            MessageId::new(2),
            SubscriberId::new(9),
            Price::unit(),
            Duration::from_secs(40),
            false,
        );
        assert_eq!(t.total_interested(), 6);
        assert_eq!(t.total_on_time(), 3);
        assert_eq!(t.total_late(), 1);
        assert!((t.delivery_rate() - 0.5).abs() < 1e-12);
        assert_eq!(t.published_messages(), 2);
    }

    #[test]
    fn earning_follows_equation_2() {
        let mut t = ObjectiveTracker::new();
        t.register_message(MessageId::new(1), 3);
        // Subscriber 0 pays 3 per valid message and receives two valid messages.
        t.record_delivery(
            MessageId::new(1),
            SubscriberId::new(0),
            Price::from_units(3),
            Duration::from_secs(2),
            true,
        );
        t.register_message(MessageId::new(2), 3);
        t.record_delivery(
            MessageId::new(2),
            SubscriberId::new(0),
            Price::from_units(3),
            Duration::from_secs(2),
            true,
        );
        // Subscriber 1 pays 1 and receives one valid and one late message.
        t.record_delivery(
            MessageId::new(1),
            SubscriberId::new(1),
            Price::from_units(1),
            Duration::from_secs(2),
            true,
        );
        t.record_delivery(
            MessageId::new(2),
            SubscriberId::new(1),
            Price::from_units(1),
            Duration::from_secs(90),
            false,
        );
        assert_eq!(t.total_earning().as_f64(), 7.0);
        assert_eq!(t.valid_deliveries_of(SubscriberId::new(0)), 2);
        assert_eq!(t.valid_deliveries_of(SubscriberId::new(1)), 1);
        assert_eq!(t.valid_deliveries_of(SubscriberId::new(7)), 0);
    }

    #[test]
    fn empty_tracker_defaults() {
        let t = ObjectiveTracker::new();
        assert_eq!(t.delivery_rate(), 0.0);
        assert_eq!(t.total_earning(), Earning::ZERO);
        assert_eq!(t.mean_valid_delay_ms(), 0.0);
        assert_eq!(t.duplicate_deliveries(), 0);
    }

    #[test]
    fn duplicate_deliveries_are_audited() {
        let mut t = ObjectiveTracker::new();
        t.register_message(MessageId::new(1), 2);
        let deliver = |t: &mut ObjectiveTracker, sub: u32| {
            t.record_delivery(
                MessageId::new(1),
                SubscriberId::new(sub),
                Price::unit(),
                Duration::from_secs(1),
                true,
            );
        };
        deliver(&mut t, 0);
        deliver(&mut t, 1);
        assert_eq!(t.duplicate_deliveries(), 0);
        deliver(&mut t, 0); // the same pair again
        assert_eq!(t.duplicate_deliveries(), 1);
    }

    #[test]
    fn mean_delay_counts_only_valid_deliveries() {
        let mut t = ObjectiveTracker::new();
        t.register_message(MessageId::new(1), 2);
        t.record_delivery(
            MessageId::new(1),
            SubscriberId::new(0),
            Price::unit(),
            Duration::from_millis(1_000),
            true,
        );
        t.record_delivery(
            MessageId::new(1),
            SubscriberId::new(1),
            Price::unit(),
            Duration::from_millis(9_000),
            false,
        );
        assert!((t.mean_valid_delay_ms() - 1_000.0).abs() < 1e-9);
    }
}
