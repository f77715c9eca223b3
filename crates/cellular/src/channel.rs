//! Wireless channel model: RSSI, mobility, fading, SINR, CQI and bit error
//! rate.
//!
//! The paper's experiments span RSSI levels from −85 dBm (good indoor
//! coverage) to −113 dBm (cell edge), a mobility experiment that walks the
//! device from −85 dBm to −105 dBm and back (Fig. 16/17), and an analytic
//! transport-block error model based on an i.i.d. bit error rate between
//! 1 × 10⁻⁶ and 5 × 10⁻⁶ (Fig. 6).  [`ChannelModel`] reproduces those inputs:
//! a deterministic RSSI trajectory plus log-normal shadowing and fast fading
//! with a configurable coherence time, mapped to SINR, CQI and BER.

use crate::mcs::Cqi;
use pbe_stats::time::{Duration, Instant, MICROS_PER_MS};
use pbe_stats::DetRng;
use serde::{Deserialize, Serialize};

/// Thermal noise plus typical interference floor for a 20 MHz LTE carrier at
/// a moderately loaded site, in dBm.  SINR ≈ RSSI − NOISE_FLOOR_DBM.
pub const NOISE_FLOOR_DBM: f64 = -110.0;

/// A piecewise-linear RSSI-versus-time trajectory (the mobility model).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MobilityTrace {
    /// `(time, rssi_dbm)` waypoints, sorted by time.  RSSI is linearly
    /// interpolated between waypoints and held constant after the last one.
    pub waypoints: Vec<(Instant, f64)>,
}

impl MobilityTrace {
    /// A static device at a fixed RSSI.
    pub fn stationary(rssi_dbm: f64) -> Self {
        MobilityTrace {
            waypoints: vec![(Instant::ZERO, rssi_dbm)],
        }
    }

    /// The paper's Fig. 16/17 walk: hold at −85 dBm for 13 s, walk to
    /// −105 dBm over the next 13 s, walk back in 4 s, hold 10 s (40 s total).
    pub fn paper_mobility_walk() -> Self {
        MobilityTrace {
            waypoints: vec![
                (Instant::ZERO, -85.0),
                (Instant::from_secs(13), -85.0),
                (Instant::from_secs(26), -105.0),
                (Instant::from_secs(30), -85.0),
                (Instant::from_secs(40), -85.0),
            ],
        }
    }

    /// Build a trace from `(seconds, rssi)` pairs.
    pub fn from_secs(points: &[(f64, f64)]) -> Self {
        assert!(!points.is_empty());
        MobilityTrace {
            waypoints: points
                .iter()
                .map(|(s, r)| (Instant::from_micros((s * 1e6) as u64), *r))
                .collect(),
        }
    }

    /// RSSI at a point in time.
    pub fn rssi_at(&self, t: Instant) -> f64 {
        rssi_at(&self.waypoints, t)
    }
}

/// RSSI at `t` of the trajectory through `waypoints` (sorted by time, not
/// empty): linear between the two waypoints whose window holds `t` — the
/// first such window, so a `t` on a waypoint interpolates into it from the
/// left — and held constant before the first and after the last.
pub(crate) fn rssi_at(waypoints: &[(Instant, f64)], t: Instant) -> f64 {
    debug_assert!(!waypoints.is_empty());
    if t <= waypoints[0].0 {
        return waypoints[0].1;
    }
    // The first waypoint at or after `t` closes the first window holding it.
    let end = waypoints.partition_point(|w| w.0 < t);
    let Some(&(t1, r1)) = waypoints.get(end) else {
        return waypoints[waypoints.len() - 1].1;
    };
    let (t0, r0) = waypoints[end - 1];
    if t1 == t0 {
        return r1;
    }
    let frac = (t.as_micros() - t0.as_micros()) as f64 / (t1.as_micros() - t0.as_micros()) as f64;
    r0 + (r1 - r0) * frac
}

/// Instantaneous channel state between one UE and one cell, sampled once per
/// subframe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelState {
    /// Received signal strength including fading, dBm.
    pub rssi_dbm: f64,
    /// Signal-to-interference-plus-noise ratio, dB.
    pub sinr_db: f64,
    /// Channel quality indicator the UE would report.
    pub cqi: Cqi,
    /// Number of usable spatial streams (rank indicator).
    pub spatial_streams: u8,
    /// Estimated i.i.d. bit error rate after forward error correction, used
    /// by the transport-block error model of the paper's Eqn. 5.
    pub bit_error_rate: f64,
}

impl ChannelState {
    /// Reference-signal received power of this sample, dBm.
    ///
    /// True RSRP is the per-resource-element power, a fixed offset
    /// (−10·log10(12·PRBs)) below the wideband RSSI; a fixed offset is
    /// invisible to the comparative A3 ranking, so the model reports the
    /// faded RSSI directly and keeps the traces' dBm calibration.
    pub fn rsrp_dbm(&self) -> f64 {
        self.rssi_dbm
    }
}

/// Exponential L3 measurement filter applied to raw per-sample RSRP before
/// cell ranking (3GPP's layer-3 filtering, TS 36.331 §5.5.3.2).
///
/// Fast fading swings the per-subframe RSRP by several dB; ranking cells on
/// raw samples would hand over on fades.  The filter is a first-order
/// exponential smoother with a configurable time constant: each new sample
/// moves the state by `1 − exp(−Δt/τ)` of the gap.
#[derive(Debug, Clone, Copy)]
pub struct L3Filter {
    time_constant_ms: f64,
    state_dbm: Option<f64>,
    last_sample: Instant,
    /// The last `(Δt, α)` pair computed: measurements arrive on a fixed
    /// period, so the `exp` is almost always a repeat.
    memo: (f64, f64),
}

impl L3Filter {
    /// A filter with the given smoothing time constant in milliseconds.
    pub fn new(time_constant_ms: f64) -> Self {
        L3Filter {
            time_constant_ms: time_constant_ms.max(0.0),
            state_dbm: None,
            last_sample: Instant::ZERO,
            memo: (f64::NAN, 0.0),
        }
    }

    /// Fold one raw RSRP sample taken at `t` into the filter and return the
    /// filtered value.  The first sample initialises the state directly.
    pub fn update(&mut self, t: Instant, rsrp_dbm: f64) -> f64 {
        let state = match self.state_dbm {
            None => rsrp_dbm,
            Some(prev) => {
                let dt_ms = t.saturating_since(self.last_sample).as_millis_f64();
                let alpha = if self.time_constant_ms <= 0.0 {
                    1.0
                } else if dt_ms == self.memo.0 {
                    self.memo.1
                } else {
                    let alpha = 1.0 - (-dt_ms / self.time_constant_ms).exp();
                    self.memo = (dt_ms, alpha);
                    alpha
                };
                prev + alpha * (rsrp_dbm - prev)
            }
        };
        self.state_dbm = Some(state);
        self.last_sample = t;
        state
    }

    /// The current filtered RSRP, if at least one sample arrived.
    pub fn get(&self) -> Option<f64> {
        self.state_dbm
    }
}

/// Rank cells by filtered RSRP, strongest first (deterministic: ties break
/// towards the lower cell id so the ranking is stable across platforms).
pub fn rank_cells_by_rsrp(measurements: &mut [(crate::config::CellId, f64)]) {
    measurements.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
}

/// The parameters of a fading process.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FadingParams {
    /// Standard deviation of slow log-normal shadowing, dB.
    shadowing_std_db: f64,
    /// Peak-to-peak magnitude of fast fading, dB.
    fading_depth_db: f64,
    /// Channel coherence time: fading is re-drawn at this period.
    coherence_time: Duration,
}

impl FadingParams {
    /// 2 dB shadowing, 3 dB fades and a 20 ms coherence time: every
    /// channel of the tick engine, and a [`ChannelModel`] not overridden.
    pub(crate) const DEFAULT: FadingParams = FadingParams {
        shadowing_std_db: 2.0,
        fading_depth_db: 3.0,
        coherence_time: Duration::from_millis(20),
    };
}

/// The fading process of one (UE, cell) channel: log-normal shadowing and
/// fast fading, redrawn once per coherence interval from the channel's own
/// random stream.  [`ChannelModel`] and the tick engine's per-UE rows
/// (`ue::RowTable`) both fade their trajectories through it; the
/// parameters are passed in, so a row does not carry a copy.
#[derive(Debug, Clone)]
pub(crate) struct Fading {
    rng: DetRng,
    current_fading_db: f64,
    current_shadowing_db: f64,
    valid_until: Instant,
}

impl Fading {
    /// A fading process that has drawn nothing yet.
    pub(crate) fn new(rng: DetRng) -> Self {
        Fading {
            rng,
            current_fading_db: 0.0,
            current_shadowing_db: 0.0,
            valid_until: Instant::ZERO,
        }
    }

    /// The faded RSRP for the subframe at `t` of a trajectory that reads
    /// `rssi_dbm` there, redrawing first if the coherence interval expired.
    #[inline]
    pub(crate) fn rsrp(&mut self, p: &FadingParams, t: Instant, rssi_dbm: f64) -> f64 {
        if t >= self.valid_until {
            self.redraw(p, t);
        }
        debug_assert!(
            !self.current_fading_db.is_nan(),
            "read a fade that a replay skipped"
        );
        rssi_dbm + self.current_shadowing_db + self.current_fading_db
    }

    /// Start a new coherence interval at `t`: draw its fade and shadowing.
    /// Every redraw makes the same draws (a uniform and a Bernoulli when
    /// fading is on, a normal when shadowing is on), whatever `t` is.
    fn redraw(&mut self, p: &FadingParams, t: Instant) {
        self.current_fading_db = if p.fading_depth_db > 0.0 {
            // Rayleigh-like fades: mostly shallow, occasionally deep.
            let u = self.rng.uniform();
            let deep = self.rng.bernoulli(0.05);
            let depth = if deep {
                p.fading_depth_db * 3.0
            } else {
                p.fading_depth_db
            };
            -depth * u
        } else {
            0.0
        };
        self.current_shadowing_db = if p.shadowing_std_db > 0.0 {
            self.rng.normal(0.0, p.shadowing_std_db)
        } else {
            0.0
        };
        self.valid_until = t + p.coherence_time;
    }

    /// Start a coherence interval at `t` whose values nothing will read:
    /// advance the stream by a redraw's draws — two uniforms for the fade
    /// (its depth and whether it is deep), two for the Box–Muller
    /// shadowing — without the `ln`, `sqrt` and `cos`.  The values read NaN
    /// until the next redraw, and a debug build refuses to read them.
    fn skip(&mut self, p: &FadingParams, t: Instant) {
        let draws = if p.fading_depth_db > 0.0 { 2 } else { 0 }
            + if p.shadowing_std_db > 0.0 { 2 } else { 0 };
        for _ in 0..draws {
            self.rng.next_u64();
        }
        self.current_fading_db = f64::NAN;
        self.current_shadowing_db = f64::NAN;
        self.valid_until = t + p.coherence_time;
    }

    /// Make the redraws that sampling on every subframe in `[from, to)`
    /// would have made, leaving the process (and its random stream) exactly
    /// where those samples would have.  Subframes before the current
    /// coherence interval ends draw nothing, so a range that overlaps
    /// subframes already sampled is harmless.  Costs one step per coherence
    /// interval, not per subframe, and a redraw whose interval ends at or
    /// before `to` only advances the stream: the first read at or after `to`
    /// redraws over it, so the caller must not read before `to`.
    pub(crate) fn replay(&mut self, p: &FadingParams, from: Instant, to: Instant) {
        let mut t = next_subframe(from.max(self.valid_until));
        while t < to {
            if t + p.coherence_time <= to {
                self.skip(p, t);
            } else {
                self.redraw(p, t);
            }
            t = next_subframe(self.valid_until);
        }
    }
}

impl ChannelState {
    /// The state of a subframe whose faded RSSI is `rssi_dbm`, on a link of
    /// at most `max_spatial_streams` streams.
    pub(crate) fn from_rssi(rssi_dbm: f64, max_spatial_streams: u8) -> Self {
        let sinr = rssi_dbm - NOISE_FLOOR_DBM;
        let spatial_streams = if sinr >= 13.0 {
            max_spatial_streams.clamp(1, 2)
        } else {
            1
        };
        ChannelState {
            rssi_dbm,
            sinr_db: sinr,
            cqi: Cqi::from_sinr_db(sinr),
            spatial_streams,
            bit_error_rate: ber_from_sinr(sinr),
        }
    }
}

/// Per-(UE, cell) wireless channel model: a mobility trace faded by a
/// fading process that owns its random stream.
#[derive(Debug, Clone)]
pub struct ChannelModel {
    trace: MobilityTrace,
    /// Maximum spatial streams the UE/cell pair supports.
    max_spatial_streams: u8,
    params: FadingParams,
    fading: Fading,
}

impl ChannelModel {
    /// Create a channel model from a mobility trace.
    pub fn new(trace: MobilityTrace, max_spatial_streams: u8, rng: DetRng) -> Self {
        ChannelModel {
            trace,
            max_spatial_streams: max_spatial_streams.max(1),
            params: FadingParams::DEFAULT,
            fading: Fading::new(rng),
        }
    }

    /// A stationary channel at a fixed RSSI.
    pub fn stationary(rssi_dbm: f64, max_spatial_streams: u8, rng: DetRng) -> Self {
        ChannelModel::new(
            MobilityTrace::stationary(rssi_dbm),
            max_spatial_streams,
            rng,
        )
    }

    /// Override the fading coherence time (small values model vehicular
    /// mobility, paper §1).
    #[cfg(test)]
    fn with_coherence_time(mut self, coherence: Duration) -> Self {
        self.params.coherence_time = coherence.max(Duration::from_millis(1));
        self
    }

    /// Disable all randomness (no fading, no shadowing) — useful for tests
    /// and for the analytic figures.
    pub fn deterministic(mut self) -> Self {
        self.params.fading_depth_db = 0.0;
        self.params.shadowing_std_db = 0.0;
        self
    }

    /// Sample the channel state for the subframe starting at `t`.
    pub fn sample(&mut self, t: Instant) -> ChannelState {
        let rssi = self.fading.rsrp(&self.params, t, self.trace.rssi_at(t));
        ChannelState::from_rssi(rssi, self.max_spatial_streams)
    }

    /// Make the redraws that [`ChannelModel::sample`] would have made had it
    /// been called on every subframe in `[from, to)`, leaving the model (and
    /// its random stream) exactly where those calls would have.  Subframes
    /// before the current coherence interval ends draw nothing, so a range
    /// that overlaps subframes already sampled is harmless.  Costs one step
    /// per coherence interval, not per subframe.  The next sample must be at
    /// or after `to`: a fade that sample would redraw over is not computed.
    pub fn replay(&mut self, from: Instant, to: Instant) {
        self.fading.replay(&self.params, from, to);
    }

    /// The underlying mobility trace.
    pub fn trace(&self) -> &MobilityTrace {
        &self.trace
    }
}

/// The first subframe boundary at or after `t`.
fn next_subframe(t: Instant) -> Instant {
    Instant::from_millis(t.as_micros().div_ceil(MICROS_PER_MS))
}

/// Residual post-FEC bit error rate as a function of SINR.
///
/// Calibrated to the paper's Fig. 6 measurements: a strong link (RSSI
/// −98 dBm ⇒ SINR ≈ 12 dB) sees p ≈ 2–3 × 10⁻⁶ and a weak link (−113 dBm ⇒
/// SINR ≈ −3 dB) sees p ≈ 5 × 10⁻⁶, with p → 1 × 10⁻⁶ on excellent channels.
pub fn ber_from_sinr(sinr_db: f64) -> f64 {
    const BER_MIN: f64 = 1.0e-6;
    const BER_MAX: f64 = 5.0e-6;
    // Logistic transition centred at 8 dB with a 6 dB width.
    let x = (sinr_db - 8.0) / 6.0;
    let frac = 1.0 / (1.0 + x.exp());
    BER_MIN + (BER_MAX - BER_MIN) * frac
}

/// Transport-block error probability for a TB of `tb_bits` bits under an
/// i.i.d. bit error rate `ber` (the paper's model: `1 − (1 − p)^L`).
pub fn tb_error_probability(tb_bits: u64, ber: f64) -> f64 {
    if tb_bits == 0 || ber <= 0.0 {
        return 0.0;
    }
    if ber >= 1.0 {
        return 1.0;
    }
    // Compute in log space for numerical stability with large L.
    let log_ok = (tb_bits as f64) * (1.0 - ber).ln();
    1.0 - log_ok.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The interpolation as a scan of every window from the first waypoint:
    /// the reference the windowed lookup must match.
    fn rssi_by_scan(waypoints: &[(Instant, f64)], t: Instant) -> f64 {
        if t <= waypoints[0].0 {
            return waypoints[0].1;
        }
        for w in waypoints.windows(2) {
            let (t0, r0) = w[0];
            let (t1, r1) = w[1];
            if t >= t0 && t <= t1 {
                if t1 == t0 {
                    return r1;
                }
                let frac = (t.as_micros() - t0.as_micros()) as f64
                    / (t1.as_micros() - t0.as_micros()) as f64;
                return r0 + (r1 - r0) * frac;
            }
        }
        waypoints.last().expect("non-empty").1
    }

    #[test]
    fn stationary_trace_is_flat() {
        let trace = MobilityTrace::stationary(-90.0);
        assert_eq!(trace.rssi_at(Instant::ZERO), -90.0);
        assert_eq!(trace.rssi_at(Instant::from_secs(100)), -90.0);
    }

    #[test]
    fn paper_walk_interpolates() {
        let trace = MobilityTrace::paper_mobility_walk();
        assert_eq!(trace.rssi_at(Instant::from_secs(5)), -85.0);
        // Midpoint of the 13 s..26 s descent: about -95 dBm.
        let mid = trace.rssi_at(Instant::from_micros(19_500_000));
        assert!((mid - (-95.0)).abs() < 0.5, "mid = {mid}");
        assert_eq!(trace.rssi_at(Instant::from_secs(26)), -105.0);
        assert_eq!(trace.rssi_at(Instant::from_secs(35)), -85.0);
        assert_eq!(trace.rssi_at(Instant::from_secs(400)), -85.0);
    }

    #[test]
    fn from_secs_builder() {
        let trace = MobilityTrace::from_secs(&[(0.0, -80.0), (10.0, -100.0)]);
        assert_eq!(trace.rssi_at(Instant::from_secs(0)), -80.0);
        assert!((trace.rssi_at(Instant::from_secs(5)) - (-90.0)).abs() < 1e-9);
    }

    #[test]
    fn deterministic_channel_maps_rssi_to_cqi_monotonically() {
        let mut good = ChannelModel::stationary(-85.0, 2, DetRng::new(1)).deterministic();
        let mut bad = ChannelModel::stationary(-108.0, 2, DetRng::new(1)).deterministic();
        let g = good.sample(Instant::ZERO);
        let b = bad.sample(Instant::ZERO);
        assert!(g.cqi > b.cqi);
        assert!(g.sinr_db > b.sinr_db);
        assert_eq!(g.spatial_streams, 2);
        assert_eq!(b.spatial_streams, 1);
        assert!(g.bit_error_rate < b.bit_error_rate);
    }

    #[test]
    fn fading_changes_only_at_coherence_boundaries() {
        let mut ch = ChannelModel::stationary(-90.0, 2, DetRng::new(7))
            .with_coherence_time(Duration::from_millis(10));
        let a = ch.sample(Instant::from_millis(0));
        let b = ch.sample(Instant::from_millis(5));
        let c = ch.sample(Instant::from_millis(15));
        assert_eq!(
            a.rssi_dbm, b.rssi_dbm,
            "within one coherence interval the fade is constant"
        );
        // After the coherence time the fade is re-drawn; values are almost
        // surely different.
        assert_ne!(a.rssi_dbm, c.rssi_dbm);
    }

    #[test]
    fn ber_is_in_paper_range_and_monotone() {
        assert!(ber_from_sinr(30.0) <= 1.5e-6);
        assert!(ber_from_sinr(-5.0) >= 4.0e-6);
        let mut prev = f64::MAX;
        for i in -10..=30 {
            let b = ber_from_sinr(i as f64);
            assert!(b <= prev);
            assert!((1.0e-6..=5.0e-6).contains(&b));
            prev = b;
        }
    }

    #[test]
    fn tb_error_probability_matches_formula() {
        // Small L: direct comparison with the naive formula.
        let p = tb_error_probability(1000, 1e-4);
        let naive = 1.0 - (1.0 - 1e-4f64).powi(1000);
        assert!((p - naive).abs() < 1e-9);
        assert_eq!(tb_error_probability(0, 1e-4), 0.0);
        assert_eq!(tb_error_probability(100, 0.0), 0.0);
        assert_eq!(tb_error_probability(100, 1.0), 1.0);
    }

    #[test]
    fn tb_error_probability_matches_paper_fig6b() {
        // Paper Fig. 6(b): at BER 5e-6 a 60 kbit TB has ~26 % error rate,
        // at BER 1e-6 a 60 kbit TB has ~6 %.
        let p_high = tb_error_probability(60_000, 5e-6);
        let p_low = tb_error_probability(60_000, 1e-6);
        assert!((0.2..0.3).contains(&p_high), "p_high = {p_high}");
        assert!((0.04..0.08).contains(&p_low), "p_low = {p_low}");
    }

    proptest! {
        #[test]
        fn tb_error_probability_is_probability(bits in 0u64..10_000_000, ber in 0.0f64..0.01) {
            let p = tb_error_probability(bits, ber);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn tb_error_monotone_in_size(bits in 1u64..1_000_000, extra in 1u64..1_000_000, ber in 1e-7f64..1e-4) {
            let p1 = tb_error_probability(bits, ber);
            let p2 = tb_error_probability(bits + extra, ber);
            prop_assert!(p2 >= p1);
        }

        /// Replaying the subframes a channel skipped is the same as having
        /// sampled each of them: the state at `to` and the next 100 samples
        /// (so the random stream position) are bit-identical, for fractional
        /// coherence times, for deterministic and fade-free channels, and
        /// for a replay range that reaches back over subframes already
        /// sampled.
        #[test]
        fn replay_matches_sampling_every_subframe(
            seed in 0u64..1_000_000,
            from in 0u64..500,
            len in 1u64..=500,
            coherence_us in 1_000u64..=50_000,
            kind in 0usize..3,
            back in 0u64..100,
        ) {
            let to = (from + len).min(500).max(from + 1);
            let model = || {
                let ch = ChannelModel::new(
                    MobilityTrace::from_secs(&[(0.0, -85.0), (0.6, -105.0)]),
                    2,
                    DetRng::new(seed),
                )
                .with_coherence_time(Duration::from_micros(coherence_us));
                match kind {
                    0 => ch,
                    1 => ch.deterministic(),
                    // Fading off, shadowing on.
                    _ => ChannelModel {
                        params: FadingParams {
                            fading_depth_db: 0.0,
                            ..ch.params
                        },
                        ..ch
                    },
                }
            };
            let bits = |s: ChannelState| {
                (
                    s.rssi_dbm.to_bits(),
                    s.sinr_db.to_bits(),
                    s.cqi.0,
                    s.spatial_streams,
                    s.bit_error_rate.to_bits(),
                )
            };
            let (mut skipped, mut sampled) = (model(), model());
            for sf in 0..from {
                let t = Instant::from_millis(sf);
                prop_assert_eq!(bits(skipped.sample(t)), bits(sampled.sample(t)));
            }
            for sf in from..to {
                sampled.sample(Instant::from_millis(sf));
            }
            skipped.replay(Instant::from_millis(from - back.min(from)), Instant::from_millis(to));
            for sf in to..=to + 100 {
                let t = Instant::from_millis(sf);
                prop_assert_eq!(bits(skipped.sample(t)), bits(sampled.sample(t)), "subframe {}", sf);
            }
        }

        /// The same, with `to` one subframe before, on, and one after the
        /// subframe that starts a coherence interval, for integer and
        /// fractional coherence times: the replay's last redraw (the one
        /// whose interval reaches past `to`) is computed, and every earlier
        /// one only advances the stream.
        #[test]
        fn replay_ending_at_a_coherence_boundary_matches_sampling(
            seed in 0u64..1_000_000,
            coherence_sel in 0usize..6,
            boundary in 2usize..8,
            from_sel in 0u64..3,
            kind in 0usize..3,
        ) {
            let coherence_us = [20_000u64, 1_000, 3_000, 2_500, 7_300, 20_400][coherence_sel];
            // Subframes (ms) at which sampling every subframe redraws.
            let mut starts = vec![0u64];
            while starts.len() <= boundary {
                let until_us = starts.last().unwrap() * 1000 + coherence_us;
                starts.push(until_us.div_ceil(1000));
            }
            let b = starts[boundary];
            for to in [b - 1, b, b + 1] {
                let from = [0, starts[1], (to - 1).min(starts[boundary - 1] + 1)][from_sel as usize];
                let model = || {
                    let ch = ChannelModel::new(
                        MobilityTrace::from_secs(&[(0.0, -85.0), (0.4, -105.0)]),
                        2,
                        DetRng::new(seed),
                    )
                    .with_coherence_time(Duration::from_micros(coherence_us));
                    match kind {
                        0 => ch,
                        1 => ch.deterministic(),
                        // Fading off, shadowing on.
                        _ => ChannelModel {
                            params: FadingParams {
                                fading_depth_db: 0.0,
                                ..ch.params
                            },
                            ..ch
                        },
                    }
                };
                let (mut skipped, mut sampled) = (model(), model());
                for sf in 0..from {
                    let t = Instant::from_millis(sf);
                    prop_assert_eq!(skipped.sample(t), sampled.sample(t));
                }
                for sf in from..to {
                    sampled.sample(Instant::from_millis(sf));
                }
                skipped.replay(Instant::from_millis(from), Instant::from_millis(to));
                for sf in to..=to + 50 {
                    let t = Instant::from_millis(sf);
                    let (a, b) = (skipped.sample(t), sampled.sample(t));
                    prop_assert_eq!(a.rssi_dbm.to_bits(), b.rssi_dbm.to_bits(), "subframe {} to {}", sf, to);
                    prop_assert_eq!(a, b);
                }
            }
        }

        /// The windowed lookup returns what scanning the windows from the
        /// first waypoint returns, bit for bit: with duplicate timestamps,
        /// on waypoints, and before the first and after the last.
        #[test]
        fn interpolation_matches_the_linear_scan(
            first_ms in 0u64..4,
            steps in proptest::collection::vec((0u64..3, -120.0f64..-60.0), 0..16),
            rssi0 in -120.0f64..-60.0,
        ) {
            let mut waypoints = vec![(Instant::from_millis(first_ms), rssi0)];
            for (step, rssi) in steps {
                let t = waypoints.last().unwrap().0 + Duration::from_millis(step);
                waypoints.push((t, rssi));
            }
            let trace = MobilityTrace { waypoints };
            let end_us = trace.waypoints.last().unwrap().0.as_micros() + 3_000;
            for us in (0..=end_us).step_by(250) {
                let t = Instant::from_micros(us);
                prop_assert_eq!(
                    trace.rssi_at(t).to_bits(),
                    rssi_by_scan(&trace.waypoints, t).to_bits(),
                    "t = {} us, {:?}", us, trace.waypoints
                );
            }
        }

        #[test]
        fn channel_sample_is_sane(rssi in -120.0f64..-60.0, seed in 0u64..1000) {
            let mut ch = ChannelModel::stationary(rssi, 2, DetRng::new(seed));
            let s = ch.sample(Instant::from_millis(seed));
            prop_assert!(s.cqi.0 >= 1 && s.cqi.0 <= 15);
            prop_assert!(s.spatial_streams >= 1 && s.spatial_streams <= 2);
            prop_assert!(s.bit_error_rate > 0.0 && s.bit_error_rate < 1e-5);
        }
    }
}
