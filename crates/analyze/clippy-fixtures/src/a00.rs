//! A00 and the baseline file: every suppression is a reasoned
//! `#[expect]`, and a stale one fails.

pub fn allow_without_reason(x: Option<u32>) -> u32 {
    #[allow(clippy::unwrap_used)] //~ clippy::allow_attributes clippy::allow_attributes_without_reason
    x.unwrap()
}

pub fn allow_with_reason(x: Option<u32>) -> u32 {
    #[allow(clippy::unwrap_used, reason = "an allow is never stale")] //~ clippy::allow_attributes
    x.unwrap()
}

pub fn expect_without_reason(x: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used)] //~ clippy::allow_attributes_without_reason
    x.unwrap()
}

pub fn stale_expect(x: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used, reason = "the unwrap was removed")] //~ unfulfilled_lint_expectations
    x.unwrap_or(0)
}

pub fn reasoned_expect(x: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used, reason = "the fixture shows the accepted form")]
    x.unwrap()
}
