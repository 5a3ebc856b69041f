//! The shared wireless medium: contention, loss, and delivery timing.
//!
//! [`RadioMedium`] is a passive service (no actor of its own): protocol
//! layers ask it *when* a frame would be delivered and *whether* it
//! survives, then schedule their own engine messages with the returned
//! delays. This keeps the radio independent of any particular message type
//! while still producing honest latency/loss/goodput behaviour:
//!
//! * **Contention** — transmissions carrier-sense a grid of airspace cells
//!   (`cs_range`-sized); a transmitter defers until its local airspace is
//!   free, then pays DIFS + slotted backoff. Spatially separated nodes
//!   reuse the spectrum, co-located ones serialize and collapse under load.
//! * **Loss** — per-frame PER from the [`ChannelModel`] with a fresh
//!   log-normal shadowing draw; unicast retries up to
//!   [`MacParams::max_attempts`], broadcast is send-once.
//! * **Reach** — a broadcast only considers receivers inside a fixed
//!   horizon of `2 × nominal LOS range`, computed once per medium (and
//!   again only if the channel is changed), so a beacon costs O(nearby
//!   receivers) with no range bisection. Its candidate pass reuses
//!   buffers owned by the medium and measures each candidate's distance
//!   once; it is bit-exact to the old per-call scan (same candidates,
//!   address order and RNG draws — pinned by a differential property
//!   test against that scan).
//! * **Accounting** — every call reports bytes put on the air, which the
//!   data-transfer experiments (F2) aggregate.
//!
//! Explicit hidden-terminal collisions are not modelled; contention and
//! SNR-based loss reproduce the load behaviour the experiments need.

use crate::channel::ChannelModel;
use crate::mac::MacParams;
use airdnd_engine::SpatialGrid;
use airdnd_geo::{ObstacleIndex, Vec2, World};
use airdnd_sim::{SimDuration, SimRng, SimTime};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

#[cfg(test)]
mod reference;

/// Radio-level address of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeAddr(u64);

/// The broadcast address.
pub const BROADCAST: NodeAddr = NodeAddr(u64::MAX);

impl NodeAddr {
    /// Creates an address from a raw id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `u64::MAX` (reserved for [`BROADCAST`]).
    pub fn new(id: u64) -> Self {
        assert_ne!(id, u64::MAX, "u64::MAX is the broadcast address");
        NodeAddr(id)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// `true` if this is the broadcast address.
    pub const fn is_broadcast(self) -> bool {
        self.0 == u64::MAX
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "radio:*")
        } else {
            write!(f, "radio:{}", self.0)
        }
    }
}

/// Result of a unicast transmission attempt sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The frame arrived at the destination at the given time.
    Delivered {
        /// Arrival time at the receiver.
        at: SimTime,
        /// Number of transmissions used (1 = first try).
        attempts: u32,
    },
    /// All attempts failed the channel draw.
    Lost {
        /// Number of transmissions used.
        attempts: u32,
    },
    /// Source or destination is not registered on the medium.
    Unreachable,
}

impl DeliveryOutcome {
    /// The arrival time if delivered.
    pub fn delivered_at(self) -> Option<SimTime> {
        match self {
            DeliveryOutcome::Delivered { at, .. } => Some(at),
            _ => None,
        }
    }
}

/// Airtime/byte accounting for one medium call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TxReport {
    /// Bytes put on the air (headers and retries included).
    pub bytes_on_air: u64,
    /// Total air occupancy caused by this call.
    pub airtime: SimDuration,
}

/// One broadcast delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BroadcastDelivery {
    /// The receiver.
    pub to: NodeAddr,
    /// Arrival time.
    pub at: SimTime,
}

/// The shared medium. See the module docs for the model.
#[derive(Clone, Debug)]
pub struct RadioMedium {
    channel: ChannelModel,
    mac: MacParams,
    /// Line-of-sight accelerator over the construction world's obstacles:
    /// the medium answers one LOS query per broadcast candidate per
    /// beacon, so on city-scale worlds this must be O(nearby obstacles),
    /// not O(all obstacles). The world's geometry is fixed for the
    /// medium's lifetime, so the index fully replaces it.
    los: ObstacleIndex,
    cs_range: f64,
    /// Broadcast horizon, `2 × channel.nominal_range(true)`: receivers
    /// beyond it are skipped. It depends only on the channel, so it is
    /// computed when the medium is built or its channel changes, never
    /// per beacon.
    horizon: f64,
    /// Node positions in a uniform-grid index (cells of `cs_range`), so
    /// broadcast candidate scans touch only nearby cells instead of the
    /// whole registry.
    positions: SpatialGrid<NodeAddr>,
    busy: BTreeMap<(i64, i64), SimTime>,
    rng: SimRng,
    total_bytes_on_air: u64,
    total_airtime: SimDuration,
    queue_drops: u64,
    /// Broadcast scratch, reused across calls: grid candidates around the
    /// sender, then the receivers inside the horizon with their distance.
    scan: Vec<(NodeAddr, Vec2)>,
    receivers: Vec<(NodeAddr, Vec2, f64)>,
}

/// Speed of light, m/s (propagation delay).
const C: f64 = 299_792_458.0;

impl RadioMedium {
    /// Creates a medium.
    ///
    /// `cs_range` is the carrier-sense range in metres: transmitters within
    /// `cs_range` of each other contend for the same airspace.
    ///
    /// # Panics
    ///
    /// Panics if `cs_range` is not positive and finite.
    pub fn new(
        channel: ChannelModel,
        mac: MacParams,
        world: World,
        cs_range: f64,
        rng: SimRng,
    ) -> Self {
        assert!(
            cs_range.is_finite() && cs_range > 0.0,
            "carrier-sense range must be positive"
        );
        RadioMedium {
            horizon: broadcast_horizon(&channel),
            channel,
            mac,
            los: ObstacleIndex::new(&world),
            cs_range,
            positions: SpatialGrid::new(cs_range),
            busy: BTreeMap::new(),
            rng,
            total_bytes_on_air: 0,
            total_airtime: SimDuration::ZERO,
            queue_drops: 0,
            scan: Vec::new(),
            receivers: Vec::new(),
        }
    }

    /// A medium with V2V defaults over the given world.
    pub fn v2v(world: World, rng: SimRng) -> Self {
        let (channel, mac) = crate::profiles::dsrc();
        RadioMedium::new(channel, mac, world, 600.0, rng)
    }

    /// The channel model in use.
    pub fn channel(&self) -> &ChannelModel {
        &self.channel
    }

    /// The MAC parameters in use.
    pub fn mac(&self) -> &MacParams {
        &self.mac
    }

    /// Frames dropped at the MAC because the airspace was booked out past
    /// [`MacParams::max_queue_delay`] — the congestion-collapse signal.
    pub fn queue_drops(&self) -> u64 {
        self.queue_drops
    }

    /// Bounds (or unbounds, with `None`) the MAC transmit queue — see
    /// [`MacParams::max_queue_delay`]. Dense scenarios cap this near the
    /// beacon interval so overload sheds frames instead of accumulating
    /// an ever-later delivery backlog.
    pub fn set_max_queue_delay(&mut self, cap: Option<SimDuration>) {
        self.mac.max_queue_delay = cap;
    }

    /// Overrides the channel's through-obstacle penetration loss, dB.
    /// Worlds whose occluders are radio-opaque structures (tunnel shells,
    /// bridge decks) raise this far above the urban-building default so
    /// the obstacle genuinely partitions the mesh.
    pub fn set_obstacle_loss_db(&mut self, loss_db: f64) {
        self.channel.obstacle_loss_db = loss_db;
        self.horizon = broadcast_horizon(&self.channel);
    }

    /// Registers or moves a node.
    pub fn set_position(&mut self, addr: NodeAddr, pos: Vec2) {
        assert!(
            !addr.is_broadcast(),
            "cannot position the broadcast address"
        );
        self.positions.insert(addr, pos);
    }

    /// Deregisters a node (frames to it become [`DeliveryOutcome::Unreachable`]).
    pub fn remove_node(&mut self, addr: NodeAddr) {
        self.positions.remove(addr);
    }

    /// Position of a node, if registered.
    pub fn position(&self, addr: NodeAddr) -> Option<Vec2> {
        self.positions.position(addr)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Registered nodes within `radius` of `center` (excluding none),
    /// in address order.
    pub fn nodes_in_range(&self, center: Vec2, radius: f64) -> Vec<NodeAddr> {
        let r2 = radius * radius;
        let mut candidates = Vec::new();
        self.positions
            .candidates_into(center, radius, &mut candidates);
        let mut out: Vec<NodeAddr> = candidates
            .into_iter()
            .filter(|(_, p)| p.distance_sq(center) <= r2)
            .map(|(a, _)| a)
            .collect();
        out.sort_unstable();
        out
    }

    /// Total bytes ever put on the air.
    pub fn bytes_on_air_total(&self) -> u64 {
        self.total_bytes_on_air
    }

    /// Total airtime ever occupied.
    pub fn airtime_total(&self) -> SimDuration {
        self.total_airtime
    }

    fn cell_of(&self, p: Vec2) -> (i64, i64) {
        (
            (p.x / self.cs_range).floor() as i64,
            (p.y / self.cs_range).floor() as i64,
        )
    }

    /// Earliest time the airspace around `pos` is free.
    fn airspace_free_at(&self, pos: Vec2) -> SimTime {
        let (cx, cy) = self.cell_of(pos);
        let mut free = SimTime::ZERO;
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(&t) = self.busy.get(&(cx + dx, cy + dy)) {
                    free = free.max(t);
                }
            }
        }
        free
    }

    fn occupy_airspace(&mut self, pos: Vec2, until: SimTime) {
        let (cx, cy) = self.cell_of(pos);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let entry = self.busy.entry((cx + dx, cy + dy)).or_insert(SimTime::ZERO);
                *entry = (*entry).max(until);
            }
        }
    }

    /// One physical transmission: returns `(tx_end, frame_survives)` for a
    /// link of `distance` metres, and accounts airtime/bytes.
    fn transmit(
        &mut self,
        earliest: SimTime,
        src_pos: Vec2,
        payload_bytes: u64,
        attempt: u32,
        distance: f64,
        line_of_sight: bool,
    ) -> (SimTime, bool) {
        let cw = self.mac.contention_window(attempt);
        let slots = if cw == 0 {
            0
        } else {
            (self.rng.next_u64() % (cw as u64 + 1)) as u32
        };
        let access = self.mac.difs + self.mac.backoff(slots);
        let start = self.airspace_free_at(src_pos).max(earliest) + access;
        let airtime = self.mac.tx_time(payload_bytes);
        let end = start + airtime;
        self.occupy_airspace(src_pos, end);
        self.total_airtime += airtime;
        self.total_bytes_on_air += payload_bytes + self.mac.header_bytes;
        let shadow = self.rng.normal(0.0, self.channel.shadowing_sigma_db);
        let bits = (payload_bytes + self.mac.header_bytes) * 8;
        let per = self.channel.per_at(distance, line_of_sight, shadow, bits);
        let survives = !self.rng.chance(per);
        (end, survives)
    }

    /// Sends `payload_bytes` from `src` to `dst` with ARQ retries.
    ///
    /// Returns the outcome plus airtime/byte accounting. The returned
    /// delivery time includes queueing, contention, transmission and
    /// propagation.
    pub fn unicast(
        &mut self,
        now: SimTime,
        src: NodeAddr,
        dst: NodeAddr,
        payload_bytes: u64,
    ) -> (DeliveryOutcome, TxReport) {
        let (Some(src_pos), Some(dst_pos)) =
            (self.positions.position(src), self.positions.position(dst))
        else {
            return (DeliveryOutcome::Unreachable, TxReport::default());
        };
        // Bounded transmit queue (opt-in): saturated airspace drops the
        // frame at the MAC (before any RNG draw, so capless and
        // uncongested runs are bit-for-bit unchanged) instead of
        // deferring without limit.
        if let Some(cap) = self.mac.max_queue_delay {
            if self.airspace_free_at(src_pos).saturating_since(now) > cap {
                self.queue_drops += 1;
                return (DeliveryOutcome::Lost { attempts: 0 }, TxReport::default());
            }
        }
        let distance = src_pos.distance(dst_pos);
        let los = self.los.line_of_sight(src_pos, dst_pos);
        let airtime_before = self.total_airtime;
        let bytes_before = self.total_bytes_on_air;
        let mut cursor = now;
        let mut attempts = 0;
        let outcome = loop {
            let (end, ok) = self.transmit(cursor, src_pos, payload_bytes, attempts, distance, los);
            attempts += 1;
            if ok {
                let prop = SimDuration::from_secs_f64(distance / C);
                break DeliveryOutcome::Delivered {
                    at: end + prop,
                    attempts,
                };
            }
            if attempts >= self.mac.max_attempts {
                break DeliveryOutcome::Lost { attempts };
            }
            cursor = end;
        };
        let report = TxReport {
            bytes_on_air: self.total_bytes_on_air - bytes_before,
            airtime: self.total_airtime - airtime_before,
        };
        (outcome, report)
    }

    /// Broadcasts `payload_bytes` from `src`: one transmission, each
    /// registered neighbour independently survives or loses the frame.
    ///
    /// Receivers beyond the medium's fixed horizon, `2 × nominal range`,
    /// are skipped outright (their PER is indistinguishable from 1). The
    /// rest are drawn for in address order, shadowing then loss, exactly
    /// as the old full-registry scan did, so deliveries, accounting and
    /// the RNG stream are bit-identical to it.
    pub fn broadcast(
        &mut self,
        now: SimTime,
        src: NodeAddr,
        payload_bytes: u64,
    ) -> (Vec<BroadcastDelivery>, TxReport) {
        let Some(src_pos) = self.positions.position(src) else {
            return (Vec::new(), TxReport::default());
        };
        let free_at = self.airspace_free_at(src_pos);
        // Bounded transmit queue (opt-in): a beacon that cannot reach
        // the air within `max_queue_delay` is superseded by the next
        // one, so the MAC drops it. Under sustained overload this caps
        // both the airspace backlog and every surviving frame's latency
        // — with unbounded deferral, both grow linearly for the rest of
        // the run and every delivered advert goes irreparably stale.
        // The check precedes all RNG draws: capless and uncongested
        // runs are bit-for-bit unchanged.
        if let Some(cap) = self.mac.max_queue_delay {
            if free_at.saturating_since(now) > cap {
                self.queue_drops += 1;
                return (Vec::new(), TxReport::default());
            }
        }
        let airtime_before = self.total_airtime;
        let bytes_before = self.total_bytes_on_air;
        // Single transmission, no retries: pay access + airtime once.
        let cw = self.mac.contention_window(0);
        let slots = if cw == 0 {
            0
        } else {
            (self.rng.next_u64() % (cw as u64 + 1)) as u32
        };
        let access = self.mac.difs + self.mac.backoff(slots);
        let start = free_at.max(now) + access;
        let airtime = self.mac.tx_time(payload_bytes);
        let end = start + airtime;
        self.occupy_airspace(src_pos, end);
        self.total_airtime += airtime;
        self.total_bytes_on_air += payload_bytes + self.mac.header_bytes;

        let bits = (payload_bytes + self.mac.header_bytes) * 8;
        // Grid cells overlapping the horizon circle, then the exact
        // historical predicate and address order — candidates, and
        // therefore every per-candidate RNG draw below, match the old
        // full-registry scan bit for bit.
        let horizon = self.horizon;
        self.scan.clear();
        self.positions
            .candidates_into(src_pos, horizon, &mut self.scan);
        self.receivers.clear();
        self.receivers
            .extend(self.scan.iter().filter_map(|&(addr, pos)| {
                let distance = src_pos.distance(pos);
                (addr != src && distance <= horizon).then_some((addr, pos, distance))
            }));
        self.receivers.sort_unstable_by_key(|&(addr, _, _)| addr);
        let mut deliveries = Vec::with_capacity(self.receivers.len());
        for &(addr, pos, distance) in &self.receivers {
            let los = self.los.line_of_sight(src_pos, pos);
            let shadow = self.rng.normal(0.0, self.channel.shadowing_sigma_db);
            let per = self.channel.per_at(distance, los, shadow, bits);
            if !self.rng.chance(per) {
                let prop = SimDuration::from_secs_f64(distance / C);
                deliveries.push(BroadcastDelivery {
                    to: addr,
                    at: end + prop,
                });
            }
        }
        let report = TxReport {
            bytes_on_air: self.total_bytes_on_air - bytes_before,
            airtime: self.total_airtime - airtime_before,
        };
        (deliveries, report)
    }
}

/// The broadcast horizon of a channel: twice its nominal LOS range.
fn broadcast_horizon(channel: &ChannelModel) -> f64 {
    2.0 * channel.nominal_range(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> RadioMedium {
        RadioMedium::v2v(World::new(), SimRng::seed_from(7))
    }

    /// Saturating the airspace must cap the backlog: once the local cell
    /// is booked out past `max_queue_delay`, further frames drop instead
    /// of queueing, so delivery latency stays bounded.
    #[test]
    fn saturated_airspace_drops_instead_of_deferring() {
        let mut m = medium();
        let cap = SimDuration::from_millis(100);
        m.set_max_queue_delay(Some(cap));
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(20.0, 0.0));
        let airtime = m.mac().tx_time(10_000);
        let mut delivered_latest = SimTime::ZERO;
        let mut dropped = 0;
        // Offer far more airtime than one queue-delay's worth at t=0.
        for _ in 0..200 {
            let (deliveries, report) = m.broadcast(SimTime::ZERO, a, 10_000);
            if report.bytes_on_air == 0 {
                dropped += 1;
                assert!(deliveries.is_empty());
            }
            for d in deliveries {
                delivered_latest = delivered_latest.max(d.at);
            }
        }
        assert!(dropped > 0, "200 x {airtime} of load must exceed {cap}");
        assert_eq!(m.queue_drops(), dropped);
        // Every frame that did fly left within the queue bound (plus its
        // own access + airtime and a generous backoff allowance).
        let bound = SimTime::ZERO + cap + airtime + SimDuration::from_millis(15);
        assert!(
            delivered_latest <= bound,
            "latest delivery {delivered_latest} exceeds {bound}"
        );
        // Unicast obeys the same bound: with the airspace saturated at
        // t=0, a fresh unicast is dropped before any attempt.
        let (outcome, report) = m.unicast(SimTime::ZERO, a, b, 500);
        assert_eq!(outcome, DeliveryOutcome::Lost { attempts: 0 });
        assert_eq!(report.bytes_on_air, 0);
        // Once time passes the backlog, frames flow again.
        let later = SimTime::ZERO + cap + SimDuration::from_secs(1);
        let (outcome, _) = m.unicast(later, a, b, 500);
        assert!(outcome.delivered_at().is_some(), "{outcome:?}");
    }

    #[test]
    fn unicast_close_nodes_delivers_quickly() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(20.0, 0.0));
        let (outcome, report) = m.unicast(SimTime::ZERO, a, b, 500);
        let at = outcome.delivered_at().expect("20 m link must deliver");
        assert!(at.as_millis_f64() < 5.0, "delivery took {at}");
        assert!(report.bytes_on_air >= 500);
        assert!(report.airtime > SimDuration::ZERO);
    }

    #[test]
    fn unicast_far_nodes_is_lost_after_retries() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(50_000.0, 0.0));
        let (outcome, report) = m.unicast(SimTime::ZERO, a, b, 500);
        match outcome {
            DeliveryOutcome::Lost { attempts } => {
                assert_eq!(attempts, m.mac().max_attempts);
                // Retries each burn airtime.
                assert_eq!(
                    report.bytes_on_air,
                    attempts as u64 * (500 + m.mac().header_bytes)
                );
            }
            other => panic!("expected loss at 50 km, got {other:?}"),
        }
    }

    #[test]
    fn unknown_nodes_are_unreachable() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        m.set_position(a, Vec2::ZERO);
        let (outcome, report) = m.unicast(SimTime::ZERO, a, NodeAddr::new(99), 100);
        assert_eq!(outcome, DeliveryOutcome::Unreachable);
        assert_eq!(report.bytes_on_air, 0);
        let (deliveries, _) = m.broadcast(SimTime::ZERO, NodeAddr::new(42), 100);
        assert!(deliveries.is_empty());
    }

    #[test]
    fn removed_node_becomes_unreachable() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(10.0, 0.0));
        m.remove_node(b);
        let (outcome, _) = m.unicast(SimTime::ZERO, a, b, 100);
        assert_eq!(outcome, DeliveryOutcome::Unreachable);
    }

    #[test]
    fn broadcast_reaches_near_not_far() {
        let mut m = medium();
        let src = NodeAddr::new(1);
        m.set_position(src, Vec2::ZERO);
        m.set_position(NodeAddr::new(2), Vec2::new(30.0, 0.0));
        m.set_position(NodeAddr::new(3), Vec2::new(60.0, 0.0));
        m.set_position(NodeAddr::new(4), Vec2::new(100_000.0, 0.0));
        let (deliveries, report) = m.broadcast(SimTime::ZERO, src, 200);
        let receivers: Vec<u64> = deliveries.iter().map(|d| d.to.raw()).collect();
        assert!(
            receivers.contains(&2) && receivers.contains(&3),
            "got {receivers:?}"
        );
        assert!(!receivers.contains(&4));
        // Broadcast transmits once regardless of receiver count.
        assert_eq!(report.bytes_on_air, 200 + m.mac().header_bytes);
    }

    #[test]
    fn contention_serializes_colocated_transmitters() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        let c = NodeAddr::new(3);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(10.0, 0.0));
        m.set_position(c, Vec2::new(20.0, 0.0));
        // Two back-to-back large transfers from the same spot at t=0.
        let (o1, _) = m.unicast(SimTime::ZERO, a, c, 10_000);
        let (o2, _) = m.unicast(SimTime::ZERO, b, c, 10_000);
        let t1 = o1.delivered_at().unwrap();
        let t2 = o2.delivered_at().unwrap();
        // The second must queue behind the first's airtime.
        let airtime = m.mac().tx_time(10_000);
        assert!(
            t2 >= t1 + airtime.saturating_sub(SimDuration::from_micros(1)),
            "t1={t1} t2={t2}"
        );
    }

    #[test]
    fn spatial_reuse_allows_distant_parallel_transmissions() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        let far_a = NodeAddr::new(3);
        let far_b = NodeAddr::new(4);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(10.0, 0.0));
        m.set_position(far_a, Vec2::new(100_000.0, 0.0));
        m.set_position(far_b, Vec2::new(100_010.0, 0.0));
        let (o1, _) = m.unicast(SimTime::ZERO, a, b, 10_000);
        let (o2, _) = m.unicast(SimTime::ZERO, far_a, far_b, 10_000);
        let t1 = o1.delivered_at().unwrap();
        let t2 = o2.delivered_at().unwrap();
        // Far pair does not queue behind the near pair: both finish within
        // one airtime + max backoff of t=0.
        let bound = m.mac().tx_time(10_000)
            + m.mac().difs
            + m.mac().backoff(m.mac().contention_window(0))
            + SimDuration::from_micros(1);
        assert!(t1 <= SimTime::ZERO + bound);
        assert!(t2 <= SimTime::ZERO + bound, "far pair queued: {t2}");
    }

    #[test]
    fn occlusion_hurts_delivery() {
        // Wall between the two nodes: with 40 dB penetration loss the link
        // dies at a distance that works fine with LOS.
        let mut channel = crate::profiles::dsrc().0;
        channel.obstacle_loss_db = 60.0;
        let mac = crate::profiles::dsrc().1;
        let mut world = World::new();
        world.add_obstacle(airdnd_geo::Obstacle::Rect(
            airdnd_geo::Aabb::from_center_size(Vec2::new(100.0, 0.0), 5.0, 200.0),
        ));
        let mut m = RadioMedium::new(channel, mac, world, 600.0, SimRng::seed_from(3));
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(200.0, 0.0));
        let mut lost = 0;
        for i in 0..20 {
            let (o, _) = m.unicast(SimTime::from_secs(i), a, b, 1000);
            if matches!(o, DeliveryOutcome::Lost { .. }) {
                lost += 1;
            }
        }
        assert!(lost > 10, "blocked link should mostly fail, lost {lost}/20");
    }

    #[test]
    fn accounting_accumulates() {
        let mut m = medium();
        let a = NodeAddr::new(1);
        let b = NodeAddr::new(2);
        m.set_position(a, Vec2::ZERO);
        m.set_position(b, Vec2::new(10.0, 0.0));
        m.unicast(SimTime::ZERO, a, b, 1000);
        m.broadcast(SimTime::ZERO, a, 500);
        assert!(m.bytes_on_air_total() >= 1500);
        assert!(m.airtime_total() > SimDuration::ZERO);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut m = RadioMedium::v2v(World::new(), SimRng::seed_from(seed));
            let a = NodeAddr::new(1);
            let b = NodeAddr::new(2);
            m.set_position(a, Vec2::ZERO);
            m.set_position(b, Vec2::new(150.0, 0.0));
            (0..50)
                .map(|i| m.unicast(SimTime::from_millis(i * 10), a, b, 800).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn nodes_in_range_filters_by_distance() {
        let mut m = medium();
        m.set_position(NodeAddr::new(1), Vec2::ZERO);
        m.set_position(NodeAddr::new(2), Vec2::new(100.0, 0.0));
        m.set_position(NodeAddr::new(3), Vec2::new(400.0, 0.0));
        let near = m.nodes_in_range(Vec2::ZERO, 150.0);
        assert_eq!(near.len(), 2);
    }
}
