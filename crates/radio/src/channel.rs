//! Log-distance path-loss channel with shadowing and SNR-derived PER.
//!
//! Received power follows the standard log-distance model
//! `P_rx = P_tx − PL₀ − 10·n·log₁₀(d/d₀) − X_σ − L_obs`, where `X_σ` is
//! log-normal shadowing and `L_obs` penetration loss applied when the
//! line of sight is blocked. The bit-error rate uses the coherent-BPSK
//! approximation `BER ≈ ½·e^(−SNR/2)`, and the packet-error rate follows as
//! `PER = 1 − (1 − BER)^bits`. The absolute numbers are not calibrated to a
//! specific radio, but the *shape* — a sharp range cliff whose knee moves
//! with obstacle loss and frame size — is what the orchestration experiments
//! depend on.

use serde::{Deserialize, Serialize};

/// SNR (dB) from which [`ChannelModel::per`] is 0.0 for every frame size
/// without evaluating the closed form. `1 - ber` already rounds to 1 at
/// about 18.7 dB; at 20 dB `ber` is below 1e-21, five orders of magnitude
/// under that rounding edge (2⁻⁵⁴), so the shortcut is bit-exact.
const LOSSLESS_SNR_DB: f64 = 20.0;

/// Parameters of the path-loss + PER model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelModel {
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Path-loss exponent `n` (2 free space, 2.7–3.5 urban).
    pub path_loss_exponent: f64,
    /// Reference path loss at 1 m, dB.
    pub reference_loss_db: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
    /// Thermal-noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// Extra penetration loss when line of sight is blocked, dB.
    pub obstacle_loss_db: f64,
}

impl Default for ChannelModel {
    /// The 802.11p/DSRC-like profile; see [`crate::profiles::dsrc`].
    fn default() -> Self {
        crate::profiles::dsrc().0
    }
}

impl ChannelModel {
    /// Mean received power at `distance` metres, dBm (before shadowing).
    ///
    /// Distances below 1 m are clamped to 1 m.
    pub fn mean_rx_power_dbm(&self, distance: f64, line_of_sight: bool) -> f64 {
        let d = distance.max(1.0);
        let pl = self.reference_loss_db + 10.0 * self.path_loss_exponent * d.log10();
        let obs = if line_of_sight {
            0.0
        } else {
            self.obstacle_loss_db
        };
        self.tx_power_dbm - pl - obs
    }

    /// Signal-to-noise ratio in dB for a given received power.
    pub fn snr_db(&self, rx_power_dbm: f64) -> f64 {
        rx_power_dbm - self.noise_floor_dbm
    }

    /// Packet-error rate for a frame of `bits` at the given SNR (dB).
    ///
    /// Monotone non-decreasing in frame size and non-increasing in SNR.
    pub fn per(&self, snr_db: f64, bits: u64) -> f64 {
        // Well above the edge below, `ber` is under 1e-21: the closed form
        // is exactly 0.0 however libm rounds, so skip all three calls.
        if snr_db >= LOSSLESS_SNR_DB {
            return 0.0;
        }
        let snr = 10f64.powf(snr_db / 10.0);
        let ber = 0.5 * (-snr / 2.0).exp();
        let bit_ok = 1.0 - ber;
        // `pow(1, y) == 1` for every `y`, so a bit that cannot fail (from
        // about 18.7 dB up) makes the frame lossless: the same 0.0 the
        // closed form gives, without the `powf`.
        if bit_ok == 1.0 {
            return 0.0;
        }
        let ok = bit_ok.powf(bits as f64);
        (1.0 - ok).clamp(0.0, 1.0)
    }

    /// End-to-end PER at `distance` with a concrete shadowing draw
    /// (`shadow_db`, positive = deeper fade) for a frame of `bits`.
    pub fn per_at(&self, distance: f64, line_of_sight: bool, shadow_db: f64, bits: u64) -> f64 {
        let rx = self.mean_rx_power_dbm(distance, line_of_sight) - shadow_db;
        self.per(self.snr_db(rx), bits)
    }

    /// Approximate communication range: the distance where mean-SNR PER for
    /// a 256-byte frame crosses 50 % (bisection, no shadowing).
    pub fn nominal_range(&self, line_of_sight: bool) -> f64 {
        let bits = 256 * 8;
        let per_of = |d: f64| {
            let rx = self.mean_rx_power_dbm(d, line_of_sight);
            self.per(self.snr_db(rx), bits)
        };
        let (mut lo, mut hi) = (1.0, 100_000.0);
        if per_of(lo) > 0.5 {
            return 0.0;
        }
        if per_of(hi) < 0.5 {
            return hi;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if per_of(mid) < 0.5 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `per` as the closed form, with no shortcut.
    fn per_closed_form(snr_db: f64, bits: u64) -> f64 {
        let snr = 10f64.powf(snr_db / 10.0);
        let ber = 0.5 * (-snr / 2.0).exp();
        let ok = (1.0 - ber).powf(bits as f64);
        (1.0 - ok).clamp(0.0, 1.0)
    }

    fn bit_cannot_fail(snr_db: f64) -> bool {
        1.0 - 0.5 * (-10f64.powf(snr_db / 10.0) / 2.0).exp() == 1.0
    }

    /// The smallest SNR (dB) at which `1 - ber` rounds to exactly 1.
    fn lossless_edge_db() -> f64 {
        let (mut lo, mut hi) = (0.0f64, 80.0f64);
        assert!(!bit_cannot_fail(lo) && bit_cannot_fail(hi));
        while f64::from_bits(lo.to_bits() + 1) < hi {
            let mid = 0.5 * (lo + hi);
            if bit_cannot_fail(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    const FRAME_BITS: [u64; 6] = [0, 1, 8, 2048, 8 * 1_536, 1 << 40];

    proptest! {
        /// The shortcut never changes a bit of the result.
        #[test]
        fn per_shortcut_is_bit_exact(snr_db in -20.0f64..80.0, bits in 0u64..1_000_000) {
            let m = model();
            prop_assert_eq!(m.per(snr_db, bits).to_bits(), per_closed_form(snr_db, bits).to_bits());
        }
    }

    /// Every SNR on a 1 mdB grid over [−20, 80] dB and the ulps either side
    /// of the `1 - ber == 1` edge agree with the closed form bit for bit.
    #[test]
    fn per_shortcut_is_bit_exact_across_the_edge() {
        let m = model();
        let edge = lossless_edge_db();
        assert!(bit_cannot_fail(edge) && !bit_cannot_fail(f64::from_bits(edge.to_bits() - 1)));
        let near_edge = (-64i64..=64).map(|k| f64::from_bits((edge.to_bits() as i64 + k) as u64));
        let grid = (-20_000..=80_000).map(|k| k as f64 / 1_000.0);
        for snr_db in near_edge.chain(grid) {
            for bits in FRAME_BITS {
                assert_eq!(
                    m.per(snr_db, bits).to_bits(),
                    per_closed_form(snr_db, bits).to_bits(),
                    "per({snr_db}, {bits})"
                );
            }
        }
    }

    fn model() -> ChannelModel {
        ChannelModel {
            tx_power_dbm: 23.0,
            path_loss_exponent: 2.75,
            reference_loss_db: 47.0,
            shadowing_sigma_db: 3.0,
            noise_floor_dbm: -95.0,
            obstacle_loss_db: 15.0,
        }
    }

    #[test]
    fn power_decreases_with_distance() {
        let m = model();
        let p10 = m.mean_rx_power_dbm(10.0, true);
        let p100 = m.mean_rx_power_dbm(100.0, true);
        let p300 = m.mean_rx_power_dbm(300.0, true);
        assert!(p10 > p100 && p100 > p300);
        // Decade of distance = 10·n dB.
        assert!((p10 - p100 - 27.5).abs() < 1e-9);
    }

    #[test]
    fn sub_metre_distances_clamp() {
        let m = model();
        assert_eq!(
            m.mean_rx_power_dbm(0.0, true),
            m.mean_rx_power_dbm(1.0, true)
        );
    }

    #[test]
    fn obstacle_costs_fixed_loss() {
        let m = model();
        let los = m.mean_rx_power_dbm(50.0, true);
        let nlos = m.mean_rx_power_dbm(50.0, false);
        assert!((los - nlos - 15.0).abs() < 1e-12);
    }

    #[test]
    fn per_monotone_in_snr_and_size() {
        let m = model();
        assert!(m.per(30.0, 1000) < 1e-9, "high SNR ≈ lossless");
        assert!(m.per(-10.0, 1000) > 0.99, "negative SNR ≈ hopeless");
        let mut last = 0.0;
        for snr in (-10..=30).rev() {
            let p = m.per(snr as f64, 2048);
            assert!(p >= last - 1e-15, "PER must not decrease as SNR drops");
            last = p;
        }
        assert!(
            m.per(8.0, 16_000) >= m.per(8.0, 1_000),
            "bigger frames fail more"
        );
    }

    #[test]
    fn per_bounds() {
        let m = model();
        for snr in [-50.0, 0.0, 7.0, 50.0] {
            for bits in [1u64, 8_000, 1_000_000] {
                let p = m.per(snr, bits);
                assert!((0.0..=1.0).contains(&p), "per({snr},{bits}) = {p}");
            }
        }
    }

    #[test]
    fn nominal_range_is_plausible_and_shrinks_without_los() {
        let m = model();
        let los = m.nominal_range(true);
        let nlos = m.nominal_range(false);
        assert!(los > 100.0 && los < 2_000.0, "LOS range {los}");
        assert!(nlos < los, "NLOS {nlos} must be shorter than LOS {los}");
    }

    #[test]
    fn shadowing_draw_shifts_per() {
        let m = model();
        let d = m.nominal_range(true);
        let faded = m.per_at(d, true, 10.0, 2048);
        let boosted = m.per_at(d, true, -10.0, 2048);
        assert!(faded > 0.5 && boosted < 0.5);
    }
}
