//! Interpolated lookup tables.
//!
//! [`Lut1`] and [`Lut2`] are the data structures behind Liberty-style NLDM
//! and LVF delay/slew tables: values sampled on a monotone axis (or axis
//! pair), evaluated by linear (bilinear) interpolation with linear
//! extrapolation beyond the sampled range — matching how production STA
//! tools treat out-of-range slews and loads.
//!
//! # Examples
//!
//! ```
//! use tc_core::lut::Lut2;
//!
//! // delay(slew, load) = 1 + 2·slew + 3·load, sampled on a 2×2 grid.
//! let lut = Lut2::new(
//!     vec![0.0, 1.0],
//!     vec![0.0, 1.0],
//!     vec![vec![1.0, 4.0], vec![3.0, 6.0]],
//! )?;
//! assert!((lut.eval(0.5, 0.5) - 3.5).abs() < 1e-12);
//! # Ok::<(), tc_core::Error>(())
//! ```

use crate::error::{Error, Result};

/// Locates `x` in the monotone axis `axis`, returning the index pair
/// `(i, i+1)` bracketing it and the interpolation fraction. Out-of-range
/// inputs clamp to the first/last segment, yielding linear extrapolation.
///
/// Queries exactly on a breakpoint return an exact fraction (`0.0`, or
/// `1.0` for the final breakpoint, which selects the last segment rather
/// than extrapolating past it) so interpolation reproduces the stored
/// sample bit-for-bit — no `(x - x0) / (x1 - x0)` rounding.
fn bracket(axis: &[f64], x: f64) -> (usize, f64) {
    debug_assert!(axis.len() >= 2);
    let n = axis.len();
    let i = match axis.binary_search_by(|a| a.total_cmp(&x)) {
        Ok(i) if i == n - 1 => return (n - 2, 1.0),
        Ok(i) => return (i, 0.0),
        Err(i) => i.saturating_sub(1).min(n - 2),
    };
    let x0 = axis[i];
    let x1 = axis[i + 1];
    let t = (x - x0) / (x1 - x0);
    (i, t)
}

/// Endpoint-exact linear interpolation: `t == 0.0` returns `v0` and
/// `t == 1.0` returns `v1` bit-for-bit (the `v0 + t·(v1 − v0)` form
/// does not — its round trip through the difference rounds).
fn lerp(v0: f64, v1: f64, t: f64) -> f64 {
    (1.0 - t) * v0 + t * v1
}

fn validate_axis(name: &str, axis: &[f64]) -> Result<()> {
    if axis.len() < 2 {
        return Err(Error::invalid_input(format!(
            "{name} axis needs at least 2 points, got {}",
            axis.len()
        )));
    }
    if axis.windows(2).any(|w| w[1] <= w[0]) {
        return Err(Error::invalid_input(format!(
            "{name} axis must be strictly increasing"
        )));
    }
    if axis.iter().any(|v| !v.is_finite()) {
        return Err(Error::invalid_input(format!("{name} axis must be finite")));
    }
    Ok(())
}

/// A 1-D linearly interpolated table.
#[derive(Clone, Debug, PartialEq)]
pub struct Lut1 {
    axis: Vec<f64>,
    values: Vec<f64>,
}

impl Lut1 {
    /// Builds a table from a strictly increasing axis and matching values.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the axis is shorter than 2,
    /// not strictly increasing, or the lengths mismatch.
    pub fn new(axis: Vec<f64>, values: Vec<f64>) -> Result<Self> {
        validate_axis("lut1", &axis)?;
        if axis.len() != values.len() {
            return Err(Error::invalid_input(format!(
                "axis length {} != values length {}",
                axis.len(),
                values.len()
            )));
        }
        Ok(Lut1 { axis, values })
    }

    /// Evaluates the table at `x` with linear interpolation and linear
    /// extrapolation beyond the sampled range. Queries exactly on an
    /// axis breakpoint return the stored sample bit-for-bit.
    pub fn eval(&self, x: f64) -> f64 {
        let (i, t) = bracket(&self.axis, x);
        lerp(self.values[i], self.values[i + 1], t)
    }

    /// The sampled axis.
    pub fn axis(&self) -> &[f64] {
        &self.axis
    }

    /// The sampled values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Applies `f` to every stored value, returning a new table on the
    /// same axis (used for corner/derate scaling of characterized tables).
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Lut1 {
        Lut1 {
            axis: self.axis.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }
}

/// A query located on a [`Lut2`]'s axes: the bracketing segment and
/// interpolation fraction on each axis. It depends only on the axes, so
/// one point located on a table reads every table that shares them — an
/// arc's delay, output-slew and sigma tables in one lookup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LutPoint {
    row: usize,
    row_t: f64,
    col: usize,
    col_t: f64,
}

/// A 2-D bilinearly interpolated table indexed as `(row, column)`.
///
/// In Liberty terms the row axis is typically input slew and the column
/// axis output load.
#[derive(Clone, Debug, PartialEq)]
pub struct Lut2 {
    rows: Vec<f64>,
    cols: Vec<f64>,
    /// Row-major grid: `values[r * cols.len() + c]` sampled at
    /// `(rows[r], cols[c])`.
    values: Vec<f64>,
}

impl Lut2 {
    /// Builds a table from strictly increasing axes and a full value grid
    /// (`values[r][c]` sampled at `(rows[r], cols[c])`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if either axis is invalid or the
    /// grid dimensions do not match the axes.
    pub fn new(rows: Vec<f64>, cols: Vec<f64>, values: Vec<Vec<f64>>) -> Result<Self> {
        validate_axis("row", &rows)?;
        validate_axis("column", &cols)?;
        if values.len() != rows.len() || values.iter().any(|r| r.len() != cols.len()) {
            return Err(Error::invalid_input(format!(
                "grid must be {}x{}",
                rows.len(),
                cols.len()
            )));
        }
        let values = values.into_iter().flatten().collect();
        Ok(Lut2 { rows, cols, values })
    }

    /// Samples `f(row, col)` on the given axes to build a table — the
    /// characterization entry point used by the library generator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if either axis is invalid.
    pub fn from_fn(
        rows: Vec<f64>,
        cols: Vec<f64>,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self> {
        validate_axis("row", &rows)?;
        validate_axis("column", &cols)?;
        let mut values = Vec::with_capacity(rows.len() * cols.len());
        for &r in &rows {
            values.extend(cols.iter().map(|&c| f(r, c)));
        }
        Ok(Lut2 { rows, cols, values })
    }

    /// Locates `(row, col)` on this table's axes, for [`at`](Self::at)
    /// on this table or any other with the same axes.
    pub fn locate(&self, row: f64, col: f64) -> LutPoint {
        let (row, row_t) = bracket(&self.rows, row);
        let (col, col_t) = bracket(&self.cols, col);
        LutPoint {
            row,
            row_t,
            col,
            col_t,
        }
    }

    /// Reads the table at a located point with bilinear interpolation
    /// and linear extrapolation beyond the sampled range. A point located
    /// exactly on a grid point returns the stored sample bit-for-bit.
    ///
    /// The point must come from [`locate`](Self::locate) on a table with
    /// these axes (see [`same_axes`](Self::same_axes)).
    pub fn at(&self, p: &LutPoint) -> f64 {
        let n = self.cols.len();
        let (i, j) = (p.row * n + p.col, (p.row + 1) * n + p.col);
        let top = lerp(self.values[i], self.values[i + 1], p.col_t);
        let bot = lerp(self.values[j], self.values[j + 1], p.col_t);
        lerp(top, bot, p.row_t)
    }

    /// Evaluates the table at `(row, col)`: [`at`](Self::at) the point
    /// [`locate`](Self::locate) finds.
    pub fn eval(&self, row: f64, col: f64) -> f64 {
        self.at(&self.locate(row, col))
    }

    /// `true` if both tables sample the same row and column axes, so a
    /// point located on one reads the other.
    pub fn same_axes(&self, other: &Lut2) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }

    /// The row (slew) axis.
    pub fn row_axis(&self) -> &[f64] {
        &self.rows
    }

    /// The column (load) axis.
    pub fn col_axis(&self) -> &[f64] {
        &self.cols
    }

    /// Applies `f` to every stored value, returning a new table on the
    /// same axes.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Lut2 {
        Lut2 {
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// The maximum stored value (useful for sanity bounds in tests).
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut1_interpolates_and_extrapolates() {
        let lut = Lut1::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, 6.0]).unwrap();
        assert!((lut.eval(0.5) - 1.0).abs() < 1e-12);
        assert!((lut.eval(2.0) - 4.0).abs() < 1e-12);
        // Linear extrapolation off both ends.
        assert!((lut.eval(-1.0) + 2.0).abs() < 1e-12);
        assert!((lut.eval(4.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn lut1_rejects_bad_axes() {
        assert!(Lut1::new(vec![0.0], vec![0.0]).is_err());
        assert!(Lut1::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Lut1::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Lut1::new(vec![0.0, 1.0], vec![1.0]).is_err());
    }

    #[test]
    fn lut2_reproduces_bilinear_function_exactly() {
        // f(x,y) = 2 + 3x + 4y is reproduced exactly (it has no xy term).
        let lut = Lut2::from_fn(vec![0.0, 2.0, 5.0], vec![1.0, 4.0], |x, y| {
            2.0 + 3.0 * x + 4.0 * y
        })
        .unwrap();
        for &(x, y) in &[(0.5, 2.0), (3.0, 1.5), (-1.0, 6.0), (7.0, 0.0)] {
            let want = 2.0 + 3.0 * x + 4.0 * y;
            assert!(
                (lut.eval(x, y) - want).abs() < 1e-9,
                "f({x},{y}) = {} want {want}",
                lut.eval(x, y)
            );
        }
    }

    #[test]
    fn lut2_hits_grid_points_exactly() {
        let lut = Lut2::new(
            vec![1.0, 2.0],
            vec![10.0, 20.0, 30.0],
            vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
        )
        .unwrap();
        assert_eq!(lut.eval(1.0, 10.0), 1.0);
        assert_eq!(lut.eval(2.0, 30.0), 6.0);
        assert_eq!(lut.eval(1.0, 20.0), 2.0);
    }

    #[test]
    fn lut2_rejects_ragged_grid() {
        assert!(Lut2::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![vec![1.0, 2.0], vec![3.0]],
        )
        .is_err());
    }

    #[test]
    fn map_scales_values() {
        let lut = Lut1::new(vec![0.0, 1.0], vec![1.0, 2.0]).unwrap();
        let scaled = lut.map(|v| v * 10.0);
        assert!((scaled.eval(0.5) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn max_value_scans_grid() {
        let lut = Lut2::new(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![vec![1.0, 9.0], vec![3.0, 4.0]],
        )
        .unwrap();
        assert_eq!(lut.max_value(), 9.0);
    }
}

#[cfg(test)]
mod proptests {
    //! Randomized invariants driven by the in-tree deterministic RNG.

    use super::*;
    use crate::rng::Rng;

    fn sorted_axis(rng: &mut Rng, n: usize) -> Vec<f64> {
        let mut axis = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            x += rng.uniform_in(0.01, 10.0);
            axis.push(x);
        }
        axis
    }

    fn values(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.uniform_in(-100.0, 100.0)).collect()
    }

    #[test]
    fn lut1_interior_values_are_bounded_by_samples() {
        let mut rng = Rng::seed_from(0x10701);
        for _ in 0..128 {
            let axis = sorted_axis(&mut rng, 6);
            let vals = values(&mut rng, 6);
            let lut = Lut1::new(axis.clone(), vals.clone()).unwrap();
            let x = axis[0] + rng.uniform() * (axis[5] - axis[0]);
            let y = lut.eval(x);
            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }
    }

    #[test]
    fn lut1_hits_sample_points() {
        let mut rng = Rng::seed_from(0x10702);
        for _ in 0..128 {
            let axis = sorted_axis(&mut rng, 5);
            let vals = values(&mut rng, 5);
            let idx = rng.below(5);
            let lut = Lut1::new(axis.clone(), vals.clone()).unwrap();
            assert!((lut.eval(axis[idx]) - vals[idx]).abs() < 1e-9);
        }
    }

    #[test]
    fn lut1_on_knot_queries_return_stored_samples_bit_exactly() {
        // Every breakpoint — including the LAST one, which used to go
        // through `v0 + 1.0·(v1 − v0)` and pick up rounding — must
        // reproduce its sample exactly.
        let mut rng = Rng::seed_from(0x10704);
        for _ in 0..256 {
            let n = 2 + rng.below(7);
            let axis = sorted_axis(&mut rng, n);
            let vals = values(&mut rng, n);
            let lut = Lut1::new(axis.clone(), vals.clone()).unwrap();
            for (i, &x) in axis.iter().enumerate() {
                assert_eq!(
                    lut.eval(x).to_bits(),
                    vals[i].to_bits(),
                    "knot {i} of {n}: eval({x}) = {} want {}",
                    lut.eval(x),
                    vals[i]
                );
            }
        }
    }

    #[test]
    fn lut1_below_min_and_above_max_extrapolate_linearly() {
        let mut rng = Rng::seed_from(0x10705);
        for _ in 0..128 {
            let axis = sorted_axis(&mut rng, 4);
            let vals = values(&mut rng, 4);
            let lut = Lut1::new(axis.clone(), vals.clone()).unwrap();
            // Below min: slope of the first segment.
            let x = axis[0] - rng.uniform_in(0.1, 5.0);
            let slope0 = (vals[1] - vals[0]) / (axis[1] - axis[0]);
            let want = vals[0] + slope0 * (x - axis[0]);
            assert!((lut.eval(x) - want).abs() < 1e-9 * (1.0 + want.abs()));
            // Above max: slope of the last segment.
            let x = axis[3] + rng.uniform_in(0.1, 5.0);
            let slope1 = (vals[3] - vals[2]) / (axis[3] - axis[2]);
            let want = vals[3] + slope1 * (x - axis[3]);
            assert!((lut.eval(x) - want).abs() < 1e-9 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn lut2_on_knot_queries_return_stored_samples_bit_exactly() {
        let mut rng = Rng::seed_from(0x10706);
        for _ in 0..128 {
            let nr = 2 + rng.below(4);
            let nc = 2 + rng.below(4);
            let rows = sorted_axis(&mut rng, nr);
            let cols = sorted_axis(&mut rng, nc);
            let grid: Vec<Vec<f64>> = (0..nr).map(|_| values(&mut rng, nc)).collect();
            let lut = Lut2::new(rows.clone(), cols.clone(), grid.clone()).unwrap();
            for (i, &r) in rows.iter().enumerate() {
                for (j, &c) in cols.iter().enumerate() {
                    assert_eq!(
                        lut.eval(r, c).to_bits(),
                        grid[i][j].to_bits(),
                        "grid point ({i},{j}): eval({r},{c}) = {} want {}",
                        lut.eval(r, c),
                        grid[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn lut2_out_of_range_queries_extrapolate_from_edge_segments() {
        // A bilinear (no xy term) surface extrapolates exactly, on all
        // four sides and corners.
        let mut rng = Rng::seed_from(0x10707);
        for _ in 0..128 {
            let rows = sorted_axis(&mut rng, 3);
            let cols = sorted_axis(&mut rng, 3);
            let (a, b, c) = (
                rng.uniform_in(-10.0, 10.0),
                rng.uniform_in(-10.0, 10.0),
                rng.uniform_in(-10.0, 10.0),
            );
            let lut = Lut2::from_fn(rows.clone(), cols.clone(), |x, y| a + b * x + c * y).unwrap();
            for &(dx, dy) in &[
                (-3.0, 0.0),
                (5.0, 0.0),
                (0.0, -2.0),
                (0.0, 4.0),
                (-3.0, 6.0),
            ] {
                let x = if dx < 0.0 { rows[0] + dx } else { rows[2] + dx };
                let y = if dy < 0.0 { cols[0] + dy } else { cols[2] + dy };
                let want = a + b * x + c * y;
                assert!(
                    (lut.eval(x, y) - want).abs() < 1e-6 * (1.0 + want.abs()),
                    "eval({x},{y}) = {} want {want}",
                    lut.eval(x, y)
                );
            }
        }
    }

    /// The bilinear read over a nested `grid[r][c]`, as `Lut2` computed
    /// it before its grid went flat: the reference `at(&locate(..))`
    /// must reproduce bit for bit.
    fn nested_eval(rows: &[f64], cols: &[f64], grid: &[Vec<f64>], r: f64, c: f64) -> f64 {
        let (i, ti) = bracket(rows, r);
        let (j, tj) = bracket(cols, c);
        let top = lerp(grid[i][j], grid[i][j + 1], tj);
        let bot = lerp(grid[i + 1][j], grid[i + 1][j + 1], tj);
        lerp(top, bot, ti)
    }

    #[test]
    fn located_reads_match_the_nested_grid_formula_bit_for_bit() {
        let mut rng = Rng::seed_from(0x10708);
        for _ in 0..256 {
            let nr = 2 + rng.below(6);
            let nc = 2 + rng.below(6);
            let rows = sorted_axis(&mut rng, nr);
            let cols = sorted_axis(&mut rng, nc);
            let grid: Vec<Vec<f64>> = (0..nr).map(|_| values(&mut rng, nc)).collect();
            let other: Vec<Vec<f64>> = (0..nr).map(|_| values(&mut rng, nc)).collect();
            let lut = Lut2::new(rows.clone(), cols.clone(), grid.clone()).unwrap();
            let twin = Lut2::new(rows.clone(), cols.clone(), other.clone()).unwrap();
            assert!(lut.same_axes(&twin));
            let (r0, r1) = (rows[0], rows[nr - 1]);
            let (c0, c1) = (cols[0], cols[nc - 1]);
            // Knots, interior points, and every side and corner outside.
            let mut queries: Vec<(f64, f64)> = Vec::new();
            for &r in &rows {
                for &c in &cols {
                    queries.push((r, c));
                }
            }
            for _ in 0..8 {
                queries.push((rng.uniform_in(r0, r1), rng.uniform_in(c0, c1)));
            }
            let (below, above) = (rng.uniform_in(0.1, 20.0), rng.uniform_in(0.1, 20.0));
            let inside = (rng.uniform_in(r0, r1), rng.uniform_in(c0, c1));
            for (r, c) in [
                (r0 - below, inside.1),
                (r1 + above, inside.1),
                (inside.0, c0 - below),
                (inside.0, c1 + above),
                (r0 - below, c0 - below),
                (r1 + above, c1 + above),
                (r0 - below, c1 + above),
                (r1 + above, c0 - below),
            ] {
                queries.push((r, c));
            }
            for (r, c) in queries {
                let p = lut.locate(r, c);
                let want = nested_eval(&rows, &cols, &grid, r, c);
                assert_eq!(lut.at(&p).to_bits(), want.to_bits(), "at({r},{c})");
                assert_eq!(lut.eval(r, c).to_bits(), want.to_bits(), "eval({r},{c})");
                // One point reads every table on the same axes.
                let want = nested_eval(&rows, &cols, &other, r, c);
                assert_eq!(twin.at(&p).to_bits(), want.to_bits(), "twin at({r},{c})");
            }
        }
    }

    #[test]
    fn lut2_reproduces_separable_linear_functions() {
        let mut rng = Rng::seed_from(0x10703);
        for _ in 0..128 {
            let rows = sorted_axis(&mut rng, 4);
            let cols = sorted_axis(&mut rng, 4);
            let (a, b, c) = (
                rng.uniform_in(-10.0, 10.0),
                rng.uniform_in(-10.0, 10.0),
                rng.uniform_in(-10.0, 10.0),
            );
            let lut = Lut2::from_fn(rows.clone(), cols.clone(), |x, y| a + b * x + c * y).unwrap();
            let x = rows[0] + rng.uniform() * (rows[3] - rows[0]);
            let y = cols[0] + rng.uniform() * (cols[3] - cols[0]);
            let want = a + b * x + c * y;
            assert!((lut.eval(x, y) - want).abs() < 1e-6 * (1.0 + want.abs()));
        }
    }
}
