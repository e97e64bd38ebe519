//! Stale-registration fixture: the registered scope `push` was renamed to
//! `push_sample`, so its registration audits nothing, while `tick` still
//! exists. There is no `src/dispatch.rs` at all, so the registered
//! dispatch site is stale too. Never compiled — consumed by
//! `fixtures_test.rs` as text.

pub struct Ring {
    buf: Vec<i64>,
}

impl Ring {
    pub fn push_sample(&mut self, v: i64) {
        self.buf.push(v); // unregistered since the rename: no alloc finding
    }

    pub fn tick(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    // A test-only `fn push` does not keep the registration alive.
    fn push() {}
}
