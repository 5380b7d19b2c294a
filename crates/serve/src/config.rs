//! Service configuration, overridable from the environment.
//!
//! Mirrors the `RTNN_SCALE` pattern of `rtnn-bench`: unset variables fall
//! back to the defaults, set-but-invalid variables are a configuration
//! error reported with a clear message instead of silently serving at the
//! wrong settings. The parsing core ([`ServeConfig::from_vars`]) takes an
//! injectable variable source so it is unit-testable without touching the
//! process environment.

/// Tuning of one [`QueryService`](crate::QueryService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads available to the service (shard fan-out and the
    /// engine's internal kernels). Applied with
    /// [`apply_thread_limit`](Self::apply_thread_limit); `0` keeps the
    /// machine default.
    pub threads: usize,
    /// Coalescing window in microseconds: after the first request of a tick
    /// arrives, the dispatcher keeps draining requests for this long before
    /// executing the fused batch. Longer windows trade per-request latency
    /// for throughput (bigger batches amortise more shared work).
    pub window_us: u64,
    /// Upper bound on the number of requests fused into one tick. At 1
    /// every tick serves one request with no wait — the
    /// one-request-per-call baseline the `fig_serve` experiment compares
    /// against.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            window_us: 200,
            max_batch: 64,
        }
    }
}

impl ServeConfig {
    /// Read overrides from the environment (`RTNN_SERVE_THREADS`,
    /// `RTNN_SERVE_WINDOW_US`), falling back to the defaults for unset
    /// variables. A variable that is set but not a positive integer is a
    /// configuration error: the process exits with a clear message instead
    /// of silently serving at the wrong settings.
    pub fn from_env() -> Self {
        match Self::from_vars(|name| std::env::var(name).ok()) {
            Ok(c) => c,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// [`Self::from_env`] with an injectable variable source (testable).
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut c = ServeConfig::default();
        if let Some(v) = parse_serve_var("RTNN_SERVE_THREADS", get("RTNN_SERVE_THREADS"))? {
            c.threads = v as usize;
        }
        if let Some(v) = parse_serve_var("RTNN_SERVE_WINDOW_US", get("RTNN_SERVE_WINDOW_US"))? {
            c.window_us = v;
        }
        Ok(c)
    }

    /// Set the coalescing window.
    pub fn with_window_us(mut self, window_us: u64) -> Self {
        self.window_us = window_us;
        self
    }

    /// Set the per-tick request cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Apply the thread limit to the workspace pool (`rtnn-parallel`), if
    /// one was configured. Explicitly opt-in because the pool width is
    /// process-global: binaries (the `query_server` example, the
    /// `fig_serve` bench) call this once at startup.
    pub fn apply_thread_limit(&self) {
        if self.threads > 0 {
            rtnn_parallel::set_num_threads(self.threads);
        }
    }

    /// The coalescing window as a [`std::time::Duration`].
    pub fn window(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.window_us)
    }

    /// The window a tick actually waits, in microseconds: `window_us` when
    /// a tick may fuse more than one request, else 0 (a one-request tick
    /// executes as soon as its request arrives).
    pub(crate) fn tick_window_us(&self) -> u64 {
        if self.max_batch > 1 {
            self.window_us
        } else {
            0
        }
    }
}

/// Parse one serve variable: `Ok(None)` when unset or empty, `Ok(Some(v))`
/// for a valid positive integer, and a descriptive error for zero, garbage,
/// negative or overflowing values.
fn parse_serve_var(name: &str, value: Option<String>) -> Result<Option<u64>, String> {
    let Some(raw) = value else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let parsed: u64 = trimmed.parse().map_err(|_| {
        format!("{name}={raw:?} is not a positive integer (unset it to use the default)")
    })?;
    if parsed == 0 {
        return Err(format!(
            "{name}=0 is not allowed: the value must be at least 1 (unset it to use the default)"
        ));
    }
    Ok(Some(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.window_us >= 1);
        assert!(c.max_batch >= 1);
        assert_eq!(c.threads, 0, "default keeps the machine thread count");
    }

    #[test]
    fn valid_variables_override_the_defaults() {
        let c = ServeConfig::from_vars(|name| match name {
            "RTNN_SERVE_THREADS" => Some("3".to_string()),
            "RTNN_SERVE_WINDOW_US" => Some("750".to_string()),
            _ => None,
        })
        .unwrap();
        assert_eq!(c.threads, 3);
        assert_eq!(c.window_us, 750);
        assert_eq!(c.window(), std::time::Duration::from_micros(750));
    }

    #[test]
    fn unset_or_empty_variables_fall_back_to_defaults() {
        let c = ServeConfig::from_vars(|_| None).unwrap();
        assert_eq!(c, ServeConfig::default());
        let c = ServeConfig::from_vars(|n| (n == "RTNN_SERVE_WINDOW_US").then(|| "  ".to_string()))
            .unwrap();
        assert_eq!(c.window_us, ServeConfig::default().window_us);
    }

    #[test]
    fn zero_and_garbage_are_rejected_with_clear_errors() {
        for (name, bad) in [
            ("RTNN_SERVE_THREADS", "0"),
            ("RTNN_SERVE_THREADS", "many"),
            ("RTNN_SERVE_THREADS", "-2"),
            ("RTNN_SERVE_WINDOW_US", "0"),
            ("RTNN_SERVE_WINDOW_US", "1.5"),
            ("RTNN_SERVE_WINDOW_US", "soon"),
        ] {
            let err = ServeConfig::from_vars(|n| (n == name).then(|| bad.to_string())).unwrap_err();
            assert!(
                err.contains(name),
                "error for {name}={bad} must name the variable: {err}"
            );
            assert!(
                err.contains("default"),
                "error must mention the fallback: {err}"
            );
        }
    }

    #[test]
    fn builder_helpers() {
        let c = ServeConfig::default().with_window_us(5).with_max_batch(0);
        assert_eq!(c.window_us, 5);
        assert_eq!(c.max_batch, 1, "max_batch clamps to at least 1");
        assert_eq!(c.tick_window_us(), 0, "a one-request tick never waits");
        assert_eq!(c.with_max_batch(2).tick_window_us(), 5);
    }
}
