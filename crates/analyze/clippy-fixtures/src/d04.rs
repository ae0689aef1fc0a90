//! D04: bare `unwrap`. Stricter than D04: `unwrap_err` is rejected too.

pub fn bare(x: Option<u32>) -> u32 {
    x.unwrap() //~ clippy::unwrap_used
}

pub fn bare_err(x: Result<u32, u32>) -> u32 {
    x.unwrap_err() //~ clippy::unwrap_used
}

pub fn reasoned(x: Option<u32>) -> u32 {
    x.expect("caller guarantees Some")
}

pub fn defaults(x: Option<u32>) -> u32 {
    x.unwrap_or(0) + x.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
    }
}
