//! The benchmark's span recorder: name, start, end and parent of every
//! call the benchmark makes into a crate, kept in memory and written
//! out once when the run ends. Spans of one loop iteration share its
//! iteration number as their request id.

use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    iteration: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    /// Tracing was asked for (`--trace 1`).
    enabled: bool,
    /// Recording right now (traced iterations and the per-layer pass).
    recording: bool,
    iteration: u32,
    origin: Instant,
    open: Vec<usize>,
    list: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            recording: enabled,
            iteration: 0,
            origin: Instant::now(),
            open: Vec::new(),
            list: Vec::new(),
        }
    }

    /// Turns recording on or off (never on unless tracing was asked
    /// for) and sets the request id of the spans that follow.
    pub fn set_recording(&mut self, on: bool, iteration: u32) {
        self.recording = self.enabled && on;
        self.iteration = iteration;
    }

    /// Opens a span; `None` when not recording.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let id = self.list.len();
        self.list.push(Span {
            name,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` opened.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.list[id].end_ns = self.now_ns();
            self.open.retain(|&o| o != id);
        }
    }

    /// Adds a span measured elsewhere (in a child process), with
    /// start and end already on this recorder's clock.
    pub fn add(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.recording {
            return;
        }
        self.list.push(Span {
            name,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            start_ns,
            end_ns,
        });
    }

    pub fn is_recording(&self) -> bool {
        self.recording
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Nanoseconds since the run started.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The spans as a JSON document, stamped with the host.
    pub fn to_json(&self, host_fields: &str, loadavg: &str) -> String {
        let mut out = format!(
            "{{\"host\": {{{host_fields}, \"loadavg_at_start\": \"{loadavg}\"}},\n \"spans\": [\n"
        );
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.iteration,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.list.len() { "" } else { "," }
            ));
        }
        out.push_str(" ]\n}\n");
        out
    }
}
