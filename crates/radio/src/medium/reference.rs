//! The broadcast body the fixed-horizon one replaced, kept as the test
//! oracle: [`RadioMedium::broadcast`] must agree with it bit for bit —
//! deliveries and their times, the [`TxReport`], the queue-drop and
//! on-air totals, the airspace bookings and the RNG stream — on every
//! fleet, world, payload and queue cap.

use super::{BroadcastDelivery, NodeAddr, RadioMedium, TxReport, C};
use airdnd_geo::Vec2;
use airdnd_sim::{SimDuration, SimTime};
use rand::RngCore;

/// Broadcasts the way the medium did before the horizon was fixed per
/// medium: the range bisection on every call, a fresh candidate `Vec`,
/// and each candidate's distance measured twice.
pub(super) fn broadcast(
    m: &mut RadioMedium,
    now: SimTime,
    src: NodeAddr,
    payload_bytes: u64,
) -> (Vec<BroadcastDelivery>, TxReport) {
    let Some(src_pos) = m.positions.position(src) else {
        return (Vec::new(), TxReport::default());
    };
    if let Some(cap) = m.mac.max_queue_delay {
        if m.airspace_free_at(src_pos).saturating_since(now) > cap {
            m.queue_drops += 1;
            return (Vec::new(), TxReport::default());
        }
    }
    let airtime_before = m.total_airtime;
    let bytes_before = m.total_bytes_on_air;
    let cw = m.mac.contention_window(0);
    let slots = if cw == 0 {
        0
    } else {
        (m.rng.next_u64() % (cw as u64 + 1)) as u32
    };
    let access = m.mac.difs + m.mac.backoff(slots);
    let start = m.airspace_free_at(src_pos).max(now) + access;
    let airtime = m.mac.tx_time(payload_bytes);
    let end = start + airtime;
    m.occupy_airspace(src_pos, end);
    m.total_airtime += airtime;
    m.total_bytes_on_air += payload_bytes + m.mac.header_bytes;

    let horizon = 2.0 * m.channel.nominal_range(true);
    let bits = (payload_bytes + m.mac.header_bytes) * 8;
    let mut candidates: Vec<(NodeAddr, Vec2)> = Vec::new();
    m.positions
        .candidates_into(src_pos, horizon, &mut candidates);
    candidates.retain(|&(a, p)| a != src && p.distance(src_pos) <= horizon);
    candidates.sort_unstable_by_key(|&(a, _)| a);
    let mut deliveries = Vec::new();
    for (addr, pos) in candidates {
        let distance = src_pos.distance(pos);
        let los = m.los.line_of_sight(src_pos, pos);
        let shadow = m.rng.normal(0.0, m.channel.shadowing_sigma_db);
        let per = m.channel.per_at(distance, los, shadow, bits);
        if !m.rng.chance(per) {
            let prop = SimDuration::from_secs_f64(distance / C);
            deliveries.push(BroadcastDelivery {
                to: addr,
                at: end + prop,
            });
        }
    }
    let report = TxReport {
        bytes_on_air: m.total_bytes_on_air - bytes_before,
        airtime: m.total_airtime - airtime_before,
    };
    (deliveries, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdnd_geo::World;
    use airdnd_sim::SimRng;
    use proptest::prelude::*;

    /// Asserts the two media are in the same observable state and will
    /// draw the same next random number.
    fn assert_same_state(fast: &mut RadioMedium, oracle: &mut RadioMedium) {
        assert_eq!(fast.queue_drops(), oracle.queue_drops());
        assert_eq!(fast.bytes_on_air_total(), oracle.bytes_on_air_total());
        assert_eq!(fast.airtime_total(), oracle.airtime_total());
        assert_eq!(fast.busy, oracle.busy);
        assert_eq!(fast.rng.next_u64(), oracle.rng.next_u64());
    }

    proptest! {
        /// Back-to-back broadcasts over random fleets (some beyond the
        /// horizon, some stacked on one spot), open and cornered worlds,
        /// payload sizes, queue caps and penetration losses: the
        /// fixed-horizon broadcast and the old body never disagree.
        #[test]
        fn broadcast_matches_reference(
            seed in any::<u64>(),
            fleet in prop::collection::vec(
                (0.0f64..1.5, 0.0f64..std::f64::consts::TAU, 0u8..8),
                0..151,
            ),
            corner in prop_oneof![
                Just(None),
                (1.0f64..40.0, 5.0f64..120.0).prop_map(Some),
            ],
            cap_ms in prop_oneof![Just(None), (0u64..150).prop_map(Some)],
            loss_db in prop_oneof![Just(None), (0.0f64..200.0).prop_map(Some)],
            calls in prop::collection::vec(
                (0usize..1_000, 1u64..30_000, 0u64..20_000),
                1..12,
            ),
        ) {
            let world = match corner {
                Some((setback, size)) => World::corner_buildings(setback, size),
                None => World::new(),
            };
            let mut fast = RadioMedium::v2v(world, SimRng::seed_from(seed));
            if let Some(loss_db) = loss_db {
                fast.set_obstacle_loss_db(loss_db);
            }
            fast.set_max_queue_delay(cap_ms.map(SimDuration::from_millis));
            prop_assert_eq!(fast.horizon, 2.0 * fast.channel().nominal_range(true));
            let horizon = fast.horizon;
            for (k, &(reach, angle, stack)) in fleet.iter().enumerate() {
                // One node in eight shares the previous node's spot.
                let pos = if stack == 0 && k > 0 {
                    fast.position(NodeAddr::new(k as u64)).unwrap()
                } else {
                    let r = reach * horizon;
                    Vec2::new(r * angle.cos(), r * angle.sin())
                };
                fast.set_position(NodeAddr::new(k as u64 + 1), pos);
            }
            let mut oracle = fast.clone();
            let mut now = SimTime::ZERO;
            for &(who, payload, step_us) in &calls {
                now += SimDuration::from_micros(step_us);
                // Index past the fleet: an unregistered sender.
                let src = NodeAddr::new(who as u64 % (fleet.len() as u64 + 2) + 1);
                let got = fast.broadcast(now, src, payload);
                prop_assert_eq!(got, broadcast(&mut oracle, now, src, payload));
            }
            assert_same_state(&mut fast, &mut oracle);
        }
    }

    /// Back-to-back beacons of a dense fleet under a tight cap: the drop
    /// path is compared too, whatever the property above happens to draw.
    #[test]
    fn capped_burst_matches_reference_and_drops() {
        let mut fast = RadioMedium::v2v(World::corner_buildings(12.0, 40.0), SimRng::seed_from(9));
        fast.set_max_queue_delay(Some(SimDuration::from_millis(20)));
        for i in 0..90u64 {
            let pos = Vec2::new(
                (i % 10) as f64 * 30.0 - 150.0,
                (i / 10) as f64 * 30.0 - 150.0,
            );
            fast.set_position(NodeAddr::new(i + 1), pos);
        }
        let mut oracle = fast.clone();
        for i in 0..300u64 {
            let now = SimTime::from_micros(i * 200);
            let src = NodeAddr::new(i % 90 + 1);
            assert_eq!(
                fast.broadcast(now, src, 2_000),
                broadcast(&mut oracle, now, src, 2_000)
            );
        }
        assert!(fast.queue_drops() > 0, "the burst must overflow the cap");
        assert_same_state(&mut fast, &mut oracle);
    }
}
