//! Addresses used as values: a freed allocation can be handed out again,
//! so an address key can alias unrelated data.

use std::sync::Arc;

fn keys(cols: &[Arc<Vec<f64>>], xs: &[f64]) -> (Vec<usize>, usize, *const f64) {
    let ids = cols.iter().map(|c| Arc::as_ptr(c) as usize).collect();
    let raw = xs.as_ptr() as usize;
    // a raw pointer that stays a pointer is not a key
    let p = xs.as_ptr();
    let same = Arc::ptr_eq(&cols[0], &cols[0]);
    let _ = same;
    (ids, raw, p)
}

#[cfg(test)]
mod tests {
    fn in_tests_is_fine(xs: &[f64]) -> usize {
        xs.as_ptr() as usize
    }
}
