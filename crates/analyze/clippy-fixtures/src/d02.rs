//! D02: wall clocks and raw spawns. `thread_rng` stays with D09, and
//! the rand stub has no such function.

pub fn wall_clocks() -> (std::time::Instant, std::time::SystemTime) { //~ clippy::disallowed_types
    let t = std::time::Instant::now(); //~ clippy::disallowed_types
    let s = std::time::SystemTime::now(); //~ clippy::disallowed_types
    (t, s)
}

pub fn raw_spawn() -> u32 {
    let h = std::thread::spawn(|| 1); //~ clippy::disallowed_methods
    h.join().unwrap_or(0)
}

pub fn sim_clock(clock: u64) -> u64 {
    clock + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_in_tests_is_fine() {
        let _t = std::time::Instant::now();
    }
}
