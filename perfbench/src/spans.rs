//! Spans of a traced run, kept in memory and written as one Chrome trace
//! (`chrome://tracing` / Perfetto) when the run ends.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

pub struct Spans {
    epoch: Instant,
    events: Vec<String>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            events: Vec::new(),
        }
    }

    /// Records a complete span on track `track`. Nested spans share a track
    /// and lie inside their parent's interval.
    pub fn span(
        &mut self,
        name: &str,
        track: u64,
        start: Instant,
        dur_ns: u64,
        args: &[(&str, f64)],
    ) {
        let ts = start.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3;
        let mut event = format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{track},\"ts\":{ts:.3},\"dur\":{:.3},\"args\":{{",
            dur_ns as f64 / 1e3
        );
        for (i, (key, value)) in args.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(event, "{sep}\"{key}\":{value}");
        }
        event.push_str("}}");
        self.events.push(event);
    }

    /// Writes the trace to `perfbench/out/<file>` and returns its path.
    pub fn write(&self, file: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(file);
        let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", self.events.join(",\n"));
        std::fs::write(&path, body)?;
        Ok(path)
    }
}
