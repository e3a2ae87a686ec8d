//! Property tests for the simulation engine: the event queue against a
//! reference model, and statistics invariants.

use lrp_sim::{EventQueue, Histogram, RateSeries, SimDuration, SimTime, Welford};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum QOp {
    Schedule { at_us: u64 },
    Cancel { which: usize },
    Pop,
}

fn arb_qop() -> impl Strategy<Value = QOp> {
    prop_oneof![
        (0u64..1_000).prop_map(|at_us| QOp::Schedule { at_us }),
        any::<usize>().prop_map(|which| QOp::Cancel { which }),
        Just(QOp::Pop),
    ]
}

proptest! {
    /// The event queue agrees with a naive reference (sorted vec with
    /// stable ordering) under arbitrary schedule/cancel/pop interleavings:
    /// same cancel verdicts, same pop stream, same peeks, same lengths,
    /// and the same tail when drained.
    #[test]
    fn event_queue_matches_reference(ops in proptest::collection::vec(arb_qop(), 1..300)) {
        let mut q = EventQueue::new();
        // Reference: (time, seq, payload, cancelled)
        let mut reference: Vec<(SimTime, u64, u64, bool)> = Vec::new();
        let mut keys = Vec::new();
        let mut next_payload = 0u64;
        for op in ops {
            match op {
                QOp::Schedule { at_us } => {
                    let t = SimTime::from_micros(at_us);
                    let k = q.schedule(t, next_payload);
                    keys.push(k);
                    reference.push((t, next_payload, next_payload, false));
                    next_payload += 1;
                }
                QOp::Cancel { which } => {
                    if !keys.is_empty() {
                        let idx = which % keys.len();
                        let k = keys[idx];
                        let r = q.cancel(k);
                        // Reference: cancellable iff still present & live.
                        let ref_hit = reference
                            .iter_mut()
                            .find(|(_, seq, _, dead)| *seq == idx as u64 && !dead);
                        match ref_hit {
                            Some(entry) => {
                                prop_assert!(r, "queue refused a live cancel");
                                entry.3 = true;
                            }
                            None => prop_assert!(!r, "queue cancelled a dead event"),
                        }
                    }
                }
                QOp::Pop => {
                    // Reference pop: earliest (time, seq) among live.
                    let best = reference
                        .iter()
                        .enumerate()
                        .filter(|(_, (.., dead))| !dead)
                        .min_by_key(|(_, (t, seq, ..))| (*t, *seq))
                        .map(|(i, _)| i);
                    let got = q.pop();
                    match best {
                        Some(i) => {
                            let (t, _, payload, _) = reference[i];
                            prop_assert_eq!(got, Some((t, payload)));
                            reference[i].3 = true;
                        }
                        None => prop_assert_eq!(got, None),
                    }
                }
            }
            prop_assert_eq!(
                q.len(),
                reference.iter().filter(|(.., dead)| !dead).count()
            );
            let ref_peek = reference
                .iter()
                .filter(|(.., dead)| !dead)
                .map(|&(t, ..)| t)
                .min();
            prop_assert_eq!(q.peek_time(), ref_peek);
        }
        // Drain: the tail must come out in (time, seq) order too.
        let mut tail: Vec<(SimTime, u64)> = reference
            .iter()
            .filter(|(.., dead)| !dead)
            .map(|&(t, _, payload, _)| (t, payload))
            .collect();
        tail.sort();
        for expected in tail {
            prop_assert_eq!(q.pop(), Some(expected));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Welford's mean equals the arithmetic mean to floating tolerance.
    #[test]
    fn welford_mean_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        prop_assert_eq!(w.count(), xs.len() as u64);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.min(), min);
        prop_assert_eq!(w.max(), max);
    }

    /// Histogram quantiles stay within bucket resolution of exact
    /// order statistics.
    #[test]
    fn histogram_quantile_accuracy(xs in proptest::collection::vec(0u64..10_000_000, 10..400)) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let approx = h.quantile(q);
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let exact = sorted[rank - 1];
            // Bucket resolution is ~7%; allow 10% plus small absolute slack.
            let tolerance = (exact as f64 * 0.10) + 2.0;
            prop_assert!(
                (approx as f64 - exact as f64).abs() <= tolerance,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        prop_assert_eq!(h.min(), sorted[0]);
    }

    /// Rate series conserve events: sum of buckets equals records.
    #[test]
    fn rate_series_conserves(events in proptest::collection::vec((0u64..10_000, 1u64..5), 0..300)) {
        let mut r = RateSeries::new(SimTime::ZERO, SimDuration::from_millis(100));
        let mut total = 0u64;
        for &(ms, n) in &events {
            r.record(SimTime::from_millis(ms), n);
            total += n;
        }
        prop_assert_eq!(r.buckets().iter().sum::<u64>(), total);
    }
}
