//! D03: `partial_cmp` comparators. Stricter than D03: any call is
//! rejected, not only one resolved with `unwrap`/`expect`.

use std::cmp::Ordering;

pub fn sort_unwrap(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ clippy::disallowed_methods clippy::unwrap_used
}

pub fn sort_expect(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN")); //~ clippy::disallowed_methods
}

pub fn compare(a: f64, b: f64) -> bool {
    a.partial_cmp(&b) == Some(Ordering::Less) //~ clippy::disallowed_methods
}

#[derive(PartialEq)]
pub struct E(f64);

impl PartialOrd for E {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.0.total_cmp(&other.0))
    }
}

pub fn sort_total(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}
