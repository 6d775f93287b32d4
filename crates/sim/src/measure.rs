//! Waveform measurements: threshold crossings, delays and slews.
//!
//! Conventions match production characterization flows: delays are
//! measured between 50% crossings, transition times between the 10% and
//! 90% points (scaled by 1/0.8 to a full-swing-equivalent slew when the
//! Liberty trip points differ).

use tc_core::units::Ps;

/// A sampled voltage waveform.
#[derive(Clone, Debug, PartialEq)]
pub struct Waveform {
    times: Vec<f64>,
    values: Vec<f64>,
}

/// Transition direction selector for crossing searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// Value crosses the threshold going up.
    Rise,
    /// Value crosses the threshold going down.
    Fall,
    /// Either direction.
    Any,
}

impl Edge {
    /// Whether the sample pair `v0 → v1` crosses `thresh` in this
    /// direction: the test [`Waveform::crossing`] applies to each pair,
    /// and the one the solver's early stop watches with.
    pub(crate) fn crosses(self, v0: f64, v1: f64, thresh: f64) -> bool {
        let rises = v0 < thresh && v1 >= thresh;
        let falls = v0 > thresh && v1 <= thresh;
        match self {
            Edge::Rise => rises,
            Edge::Fall => falls,
            Edge::Any => rises || falls,
        }
    }
}

impl Waveform {
    /// Wraps sampled data.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or fewer than 2 samples are provided.
    pub fn new(times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "waveform length mismatch");
        assert!(times.len() >= 2, "waveform needs at least 2 samples");
        Waveform { times, values }
    }

    /// Sample times (ps).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values (V).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Linearly interpolated value at time `t`; clamps beyond the ends.
    pub fn at(&self, t: f64) -> f64 {
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= *self.times.last().unwrap() {
            return *self.values.last().unwrap();
        }
        let idx = self.times.partition_point(|&x| x < t).max(1);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.values[idx - 1], self.values[idx]);
        if t1 <= t0 {
            return v1;
        }
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Final value.
    pub fn last(&self) -> f64 {
        *self.values.last().unwrap()
    }

    /// First time at/after `t_from` where the waveform crosses `thresh`
    /// in the requested direction, by linear interpolation.
    pub fn crossing(&self, thresh: f64, edge: Edge, t_from: f64) -> Option<f64> {
        for i in 1..self.times.len() {
            if self.times[i] < t_from {
                continue;
            }
            let (v0, v1) = (self.values[i - 1], self.values[i]);
            if edge.crosses(v0, v1, thresh) {
                let (t0, t1) = (self.times[i - 1], self.times[i]);
                let t = if (v1 - v0).abs() < 1e-15 {
                    t1
                } else {
                    t0 + (t1 - t0) * (thresh - v0) / (v1 - v0)
                };
                if t >= t_from {
                    return Some(t);
                }
            }
        }
        None
    }
}

/// First crossing of `thresh` in the given direction at/after `t_from`.
pub fn cross_time(w: &Waveform, thresh: f64, edge: Edge, t_from: f64) -> Option<f64> {
    w.crossing(thresh, edge, t_from)
}

/// 50%-to-50% delay from an input transition to the next output
/// transition of the given direction, both referenced to `vdd/2`.
pub fn delay_between(
    input: &Waveform,
    in_edge: Edge,
    output: &Waveform,
    out_edge: Edge,
    vdd: f64,
    t_from: f64,
) -> Option<Ps> {
    let t_in = input.crossing(0.5 * vdd, in_edge, t_from)?;
    let t_out = output.crossing(0.5 * vdd, out_edge, t_in)?;
    Some(Ps::new(t_out - t_in))
}

/// 10%–90% transition time of the first output edge at/after `t_from`,
/// scaled by 1/0.8 to full-swing equivalent.
pub fn slew_10_90(w: &Waveform, edge: Edge, vdd: f64, t_from: f64) -> Option<Ps> {
    let [first, second] = slew_thresholds(edge, vdd)?;
    let t1 = w.crossing(first, edge, t_from)?;
    let t2 = w.crossing(second, edge, t1)?;
    Some(Ps::new((t2 - t1) / 0.8))
}

/// The two thresholds [`slew_10_90`] crosses on an `edge`, in the order
/// it crosses them; `None` for [`Edge::Any`].
pub(crate) fn slew_thresholds(edge: Edge, vdd: f64) -> Option<[f64; 2]> {
    match edge {
        Edge::Rise => Some([0.1 * vdd, 0.9 * vdd]),
        Edge::Fall => Some([0.9 * vdd, 0.1 * vdd]),
        Edge::Any => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_wave() -> Waveform {
        // 0 V until t=10, linear to 1 V at t=30, flat after.
        Waveform::new(vec![0.0, 10.0, 30.0, 50.0], vec![0.0, 0.0, 1.0, 1.0])
    }

    #[test]
    fn interpolated_lookup() {
        let w = ramp_wave();
        assert_eq!(w.at(-5.0), 0.0);
        assert_eq!(w.at(5.0), 0.0);
        assert!((w.at(20.0) - 0.5).abs() < 1e-12);
        assert_eq!(w.at(100.0), 1.0);
    }

    #[test]
    fn crossing_detection() {
        let w = ramp_wave();
        let t = w.crossing(0.5, Edge::Rise, 0.0).unwrap();
        assert!((t - 20.0).abs() < 1e-9);
        assert!(w.crossing(0.5, Edge::Fall, 0.0).is_none());
        // Search window respected.
        assert!(w.crossing(0.5, Edge::Rise, 25.0).is_none());
    }

    #[test]
    fn delay_between_edges() {
        let inp = Waveform::new(vec![0.0, 10.0, 12.0, 50.0], vec![0.0, 0.0, 1.0, 1.0]);
        let out = ramp_wave();
        let d = delay_between(&inp, Edge::Rise, &out, Edge::Rise, 1.0, 0.0).unwrap();
        // Input crosses 0.5 at t=11, output at t=20.
        assert!((d.value() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn slew_measurement() {
        let w = ramp_wave();
        // 10% at t=12, 90% at t=28 → 16 ps / 0.8 = 20 ps.
        let s = slew_10_90(&w, Edge::Rise, 1.0, 0.0).unwrap();
        assert!((s.value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn falling_slew() {
        let w = Waveform::new(vec![0.0, 10.0, 30.0], vec![1.0, 1.0, 0.0]);
        let s = slew_10_90(&w, Edge::Fall, 1.0, 0.0).unwrap();
        assert!((s.value() - 20.0).abs() < 1e-9);
    }
}
