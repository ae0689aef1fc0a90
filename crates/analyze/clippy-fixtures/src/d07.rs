//! D07: raw thread coordination. Narrower than D07, which flagged any
//! `std::thread::` path: `available_parallelism` passes now.

use std::sync::Barrier; //~ clippy::disallowed_types

pub fn raw(n: usize) -> u32 {
    let b = Barrier::new(n); //~ clippy::disallowed_types
    let (tx, rx) = std::sync::mpsc::channel::<u32>(); //~ clippy::disallowed_methods
    std::thread::scope(|s| { //~ clippy::disallowed_methods
        s.spawn(|| {
            b.wait();
            tx.send(1).expect("receiver lives");
        });
    });
    rx.recv().expect("sender sent")
}

pub fn more_raw(n: u32) -> u32 {
    let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(1); //~ clippy::disallowed_methods
    let h = std::thread::Builder::new().spawn(move || tx.send(n)); //~ clippy::disallowed_methods
    let _ = h.map(|h| h.join());
    let _c = std::sync::Condvar::new(); //~ clippy::disallowed_types
    rx.recv().unwrap_or(0)
}

pub fn rayon_and_locks(v: &[u64]) -> u64 {
    use rayon::prelude::*;
    use std::sync::{Arc, Mutex};
    let m = Arc::new(Mutex::new(0u64));
    let rows: Vec<u64> = v.par_iter().map(|x| x + 1).collect();
    let base = *m.lock().expect("no poisoned threads here");
    base + rows.len() as u64
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The sharded engine's driver keeps its threads through one reasoned
/// `#[expect]`, where D07 had a hard-coded path exemption.
pub mod driver {
    #![expect(
        clippy::disallowed_methods,
        reason = "the barrier protocol carries its own determinism proof"
    )]

    pub fn drive() {
        std::thread::scope(|_s| {});
    }
}
