//! D09: seed sources. With wall clocks banned (D02) and no entropy
//! constructor in the rand stub, the per-process hash seed and the
//! process id are what is left to seed an RNG from; both are banned,
//! so library code seeds from its inputs only.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::BuildHasher;

pub fn hash_seeded() -> StdRng {
    let state = std::hash::RandomState::new(); //~ clippy::disallowed_types
    StdRng::seed_from_u64(state.hash_one(0u8))
}

pub fn hash_seeded_old_path() -> u64 {
    let state = std::collections::hash_map::RandomState::new(); //~ clippy::disallowed_types
    state.hash_one(1u8)
}

pub fn pid_seeded() -> StdRng {
    StdRng::seed_from_u64(u64::from(std::process::id())) //~ clippy::disallowed_methods
}

pub fn input_seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
