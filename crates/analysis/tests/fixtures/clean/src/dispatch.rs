//! Adversarial unsafe fixture: the one registered dispatch site calls the
//! `#[target_feature]` kernel, and every `unsafe` sits under a SAFETY
//! comment. Prose saying `unsafe { kernel(x) }` is not code. Never
//! compiled; zero findings required.

// SAFETY: callers must have detected avx2 at runtime; only the registered
// `dispatch` site calls this.
#[target_feature(enable = "avx2")]
pub unsafe fn kernel(x: i64) -> i64 {
    x + 1
}

pub fn dispatch(x: i64) -> i64 {
    // SAFETY: fixture pretends the feature was detected at runtime.
    unsafe { kernel(x) }
}
