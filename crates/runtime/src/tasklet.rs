//! Tasklets: deferred, run-once work items.
//!
//! Borrowed by Marcel from operating systems ("tasklets have been
//! introduced in operating systems to defer treatments that cannot be
//! performed within an interrupt handler ... executed as soon as the
//! scheduler reaches a point where it is safe to let them run", paper
//! §III-A). Here a tasklet is a boxed closure plus a label; the worker it is
//! submitted to runs its tasklets in submission order.

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

/// A run-once deferred work item.
pub struct Tasklet {
    /// Label for diagnostics.
    pub name: &'static str,
    work: Box<dyn FnOnce() + Send + 'static>,
}

impl Tasklet {
    /// A tasklet that runs `work` once.
    pub fn new(name: &'static str, work: impl FnOnce() + Send + 'static) -> Self {
        Tasklet { name, work: Box::new(work) }
    }

    /// Consumes and executes the tasklet.
    pub fn run(self) {
        (self.work)()
    }
}

impl std::fmt::Debug for Tasklet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tasklet").field("name", &self.name).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_formatting_mentions_name() {
        let t = Tasklet::new("pio-copy", || {});
        let s = format!("{t:?}");
        assert!(s.contains("pio-copy"));
    }
}
