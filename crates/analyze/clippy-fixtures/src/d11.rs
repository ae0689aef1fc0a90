//! D11: panicking macros in library code.

pub fn panics(x: u32) -> u32 {
    if x > 10 {
        panic!("too big"); //~ clippy::panic
    }
    match x {
        0 => unreachable!(), //~ clippy::unreachable
        _ => x,
    }
}

pub fn later() {
    todo!("write this") //~ clippy::todo
}

pub fn never() {
    unimplemented!() //~ clippy::unimplemented
}

pub fn reasoned(stage: u8) -> u8 {
    match stage {
        1 => 2,
        #[expect(clippy::unreachable, reason = "stages are validated at parse time")]
        _ => unreachable!(),
    }
}

pub struct Core {
    pub offered: u64,
    pub delivered: u64,
}

impl Core {
    #[cfg(feature = "invariant-checks")]
    pub fn assert_balanced(&self) {
        if self.offered != self.delivered {
            panic!("ledger imbalance");
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn panics_are_how_tests_fail() {
        if 1 + 1 != 2 {
            panic!("assert failed");
        }
    }
}
