//! Newtype wrappers for the physical quantities used throughout the
//! workspace.
//!
//! All quantities are stored as `f64` in a single canonical unit each:
//! time in **picoseconds**, capacitance in **femtofarads**, resistance in
//! **kilohms**, voltage in **volts**, temperature in **degrees Celsius**,
//! and distance in **microns**. The canonical units are chosen so that the
//! most common derived products are identities: `1 kΩ × 1 fF = 1 ps`.
//!
//! # Examples
//!
//! ```
//! use tc_core::units::{Ff, Kohm, Ps};
//!
//! let r = Kohm::new(0.5);
//! let c = Ff::new(10.0);
//! assert_eq!(r * c, Ps::new(5.0));
//! assert!(Ps::new(3.0) < Ps::new(4.0));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the standard arithmetic/compare/display surface for a scalar
/// newtype over `f64`.
macro_rules! scalar_unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this quantity.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw value expressed in this type's canonical unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// Returns the raw value in this type's canonical unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// Clamps to the inclusive range `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// `true` if the underlying value is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{:.3} {}", self.0, $suffix)
                }
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                $name(v)
            }
        }
    };
}

scalar_unit!(
    /// A time quantity in picoseconds.
    Ps,
    "ps"
);
scalar_unit!(
    /// A capacitance in femtofarads.
    Ff,
    "fF"
);
scalar_unit!(
    /// A resistance in kilohms.
    Kohm,
    "kΩ"
);
scalar_unit!(
    /// A voltage in volts.
    Volt,
    "V"
);
scalar_unit!(
    /// A temperature in degrees Celsius.
    Celsius,
    "°C"
);
scalar_unit!(
    /// A distance in microns.
    Um,
    "µm"
);

impl Ps {
    /// Converts to nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Constructs from a value in nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        Ps(ns * 1_000.0)
    }
}

impl Ff {
    /// Constructs from a value in picofarads.
    #[inline]
    pub fn from_pf(pf: f64) -> Self {
        Ff(pf * 1_000.0)
    }
}

impl Celsius {
    /// Converts to Kelvin.
    #[inline]
    pub fn as_kelvin(self) -> f64 {
        self.0 + 273.15
    }
}

/// `kΩ × fF = ps` — the canonical-unit identity that motivates the choice
/// of kilohms and femtofarads.
impl Mul<Ff> for Kohm {
    type Output = Ps;
    #[inline]
    fn mul(self, rhs: Ff) -> Ps {
        Ps::new(self.value() * rhs.value())
    }
}

/// `fF × kΩ = ps` (commuted form).
impl Mul<Kohm> for Ff {
    type Output = Ps;
    #[inline]
    fn mul(self, rhs: Kohm) -> Ps {
        rhs * self
    }
}

/// `ps / fF = kΩ` — back out an effective drive resistance.
impl Div<Ff> for Ps {
    type Output = Kohm;
    #[inline]
    fn div(self, rhs: Ff) -> Kohm {
        Kohm::new(self.value() / rhs.value())
    }
}

/// `ps / kΩ = fF` — back out an effective load.
impl Div<Kohm> for Ps {
    type Output = Ff;
    #[inline]
    fn div(self, rhs: Kohm) -> Ff {
        Ff::new(self.value() / rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_time() {
        assert_eq!(Kohm::new(2.0) * Ff::new(3.0), Ps::new(6.0));
        assert_eq!(Ff::new(3.0) * Kohm::new(2.0), Ps::new(6.0));
    }

    #[test]
    fn time_division_recovers_r_and_c() {
        let t = Ps::new(10.0);
        assert_eq!(t / Ff::new(2.0), Kohm::new(5.0));
        assert_eq!(t / Kohm::new(2.0), Ff::new(5.0));
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Ps::new(1.5);
        let b = Ps::new(2.5);
        assert_eq!(a + b, Ps::new(4.0));
        assert_eq!(b - a, Ps::new(1.0));
        assert_eq!(-a, Ps::new(-1.5));
        assert_eq!(a * 2.0, Ps::new(3.0));
        assert_eq!(2.0 * a, Ps::new(3.0));
        assert_eq!(b / 2.0, Ps::new(1.25));
        assert!((b / a - 5.0 / 3.0).abs() < 1e-12);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn add_assign_and_sum() {
        let mut t = Ps::ZERO;
        t += Ps::new(1.0);
        t += Ps::new(2.0);
        assert_eq!(t, Ps::new(3.0));
        let total: Ps = [Ps::new(1.0), Ps::new(2.0), Ps::new(3.0)].into_iter().sum();
        assert_eq!(total, Ps::new(6.0));
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(Ps::from_ns(1.0), Ps::new(1000.0));
        assert!((Ps::new(1500.0).as_ns() - 1.5).abs() < 1e-12);
        assert_eq!(Ff::from_pf(0.5), Ff::new(500.0));
        assert!((Celsius::new(25.0).as_kelvin() - 298.15).abs() < 1e-12);
    }

    #[test]
    fn display_formats_with_suffix() {
        assert_eq!(format!("{}", Ps::new(1.2345)), "1.234 ps");
        assert_eq!(format!("{:.1}", Volt::new(0.75)), "0.8 V");
    }

    #[test]
    fn clamp_and_abs() {
        assert_eq!(Ps::new(5.0).clamp(Ps::ZERO, Ps::new(3.0)), Ps::new(3.0));
        assert_eq!(Ps::new(-2.0).abs(), Ps::new(2.0));
    }
}
