//! The server's transports — and its only raw-I/O site.
//!
//! Lint L16 (`no-adhoc-io`) pins raw socket and stdin access for the
//! whole workspace's library code to this module, so every byte that
//! enters or leaves the service crosses one auditable seam. Both
//! transports speak the same protocol: one JSONL request per line in,
//! one JSONL response per line out (see [`crate::protocol`]).
//!
//! * **TCP** ([`serve_tcp`]): requests on one connection run
//!   sequentially, in order; concurrent sessions are concurrent
//!   connections. The bound address is announced on stdout as
//!   `listening on <addr>` so callers can bind port 0 and discover the
//!   ephemeral port.
//! * **stdio** ([`serve_stdio`]): every input line becomes a
//!   concurrently running session; responses are written in completion
//!   order. Returns after EOF once every in-flight session has
//!   answered — the shape batch drivers and the crash kill-drill use.
//!
//! Both read requests through one byte-level line reader
//! ([`next_request`]) that holds at most `MAX_LINE_BYTES + 1` bytes of
//! a line, so a client that never sends a newline cannot grow server
//! memory; an oversized or non-UTF-8 line still gets exactly one typed
//! answer and the stream carries on.
//!
//! Fairness across the concurrent sessions of either transport comes
//! from the server's shared round-robin batch gate, not from the
//! transport threads.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::protocol::{ErrorKind, ProtocolError, SessionResult, MAX_LINE_BYTES};
use crate::session::Server;

/// One request line off the wire: its text, or the typed rejection it
/// is answered with unparsed (oversized, not UTF-8).
type RequestLine = Result<String, ProtocolError>;

/// Read the next non-blank request line; `Ok(None)` at end of input.
fn next_request<R: BufRead>(input: &mut R) -> std::io::Result<Option<RequestLine>> {
    loop {
        match read_line(input)? {
            Some(Ok(line)) if line.trim().is_empty() => continue,
            next => return Ok(next),
        }
    }
}

/// Read one `\n`-terminated line (a final unterminated line counts; a
/// `\r` before the `\n` is dropped, as [`BufRead::lines`] does). Past
/// [`MAX_LINE_BYTES`] the rest of the line is consumed and counted but
/// not kept, and the line answers as [`ProtocolError::oversized`].
fn read_line<R: BufRead>(input: &mut R) -> std::io::Result<Option<RequestLine>> {
    let mut kept = Vec::new();
    let mut bytes = 0usize;
    let mut last = None;
    let mut terminated = false;
    while !terminated {
        let chunk = match input.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let (part, used) = match chunk.iter().position(|&b| b == b'\n') {
            Some(at) => {
                terminated = true;
                (&chunk[..at], at + 1)
            }
            None => (chunk, chunk.len()),
        };
        let room = (MAX_LINE_BYTES + 1).saturating_sub(kept.len());
        kept.extend_from_slice(&part[..part.len().min(room)]);
        bytes += part.len();
        last = part.last().copied().or(last);
        input.consume(used);
    }
    if !terminated && bytes == 0 {
        return Ok(None);
    }
    if terminated && last == Some(b'\r') {
        bytes -= 1;
        if bytes <= MAX_LINE_BYTES {
            kept.pop();
        }
    }
    if bytes > MAX_LINE_BYTES {
        return Ok(Some(Err(ProtocolError::oversized(bytes))));
    }
    Ok(Some(String::from_utf8(kept).map_err(|e| {
        ProtocolError::new(
            ErrorKind::InvalidJson,
            format!("request line is not UTF-8: {e}"),
        )
    })))
}

/// The response line, newline included, for one request line.
fn respond(server: &Server, request: RequestLine) -> String {
    let result = match request {
        Ok(line) => server.handle_line(&line),
        Err(error) => SessionResult::failure("", error),
    };
    let mut response = result.to_line();
    response.push('\n');
    response
}

/// Serve over TCP. Binds `addr` (use port `0` for an ephemeral port),
/// prints `listening on <addr>` to stdout, then accepts connections
/// until the process exits. Never panics; per-connection I/O errors
/// drop that connection only.
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    // lint:allow(no-adhoc-print): the banner IS the protocol handshake — clients bind port 0 and parse this line to discover the ephemeral port
    println!("listening on {local}");
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let server = Arc::clone(&server);
                // lint:allow(no-adhoc-threads): transport thread per connection; trial work stays on the deterministic executor in crates/parallel, and batch admission is scheduled by the round-robin gate
                std::thread::spawn(move || handle_connection(server, stream));
            }
            // lint:allow(no-adhoc-print): accept errors predate any session, so there is no session tracer to carry them
            Err(e) => eprintln!("accept failed: {e}"),
        }
    }
    Ok(())
}

fn handle_connection(server: Arc<Server>, stream: TcpStream) {
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            // lint:allow(no-adhoc-print): the connection died before a session existed; no tracer is in scope
            eprintln!("clone connection: {e}");
            return;
        }
    };
    let mut writer = stream;
    // A read error means the peer went away mid-line.
    while let Ok(Some(request)) = next_request(&mut reader) {
        let response = respond(&server, request);
        let sent = writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.flush());
        if sent.is_err() {
            return;
        }
    }
}

/// Serve over stdin/stdout: each input line spawns a session that runs
/// concurrently with the others; each response is one output line,
/// written under a shared stdout lock in completion order. Returns
/// after EOF once every in-flight session has answered.
pub fn serve_stdio(server: Arc<Server>) -> Result<(), String> {
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let mut workers = Vec::new();
    let mut input = std::io::stdin().lock();
    while let Some(request) = next_request(&mut input).map_err(|e| format!("stdin: {e}"))? {
        let server = Arc::clone(&server);
        let stdout = Arc::clone(&stdout);
        // lint:allow(no-adhoc-threads): session thread per request line; trial work stays on the deterministic executor in crates/parallel, and batch admission is scheduled by the round-robin gate
        workers.push(std::thread::spawn(move || {
            let response = respond(&server, request);
            let mut out = stdout.lock();
            let _ = out
                .write_all(response.as_bytes())
                .and_then(|()| out.flush());
        }));
    }
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use std::io::{Cursor, Read};

    /// Every request line of `bytes`, read through a `capacity`-byte
    /// buffer so lines and `\r\n` pairs straddle chunk boundaries.
    fn requests(bytes: &[u8], capacity: usize) -> Vec<RequestLine> {
        let mut input = BufReader::with_capacity(capacity, Cursor::new(bytes.to_vec()));
        let mut out = Vec::new();
        while let Some(request) = next_request(&mut input).expect("in-memory read") {
            out.push(request);
        }
        out
    }

    #[test]
    fn lines_split_like_bufread_lines() {
        let input = b"a\r\n\n  \nbc\nlast\r";
        for capacity in [1, 2, 3, 64] {
            let got: Vec<_> = requests(input, capacity)
                .into_iter()
                .map(|r| r.expect("utf-8 lines"))
                .collect();
            // Blank lines get no answer; like `lines()`, a `\r` is only
            // dropped before a `\n`.
            assert_eq!(got, ["a", "bc", "last\r"], "capacity {capacity}");
        }
        assert!(requests(b"", 8).is_empty());
    }

    #[test]
    fn oversized_lines_are_counted_not_kept_and_reading_resumes() {
        let long = "x".repeat(MAX_LINE_BYTES + 10);
        for (text, capacity) in [
            (format!("{long}\nok\n"), 4096),
            (format!("{long}\r\nok"), 7),
        ] {
            let got = requests(text.as_bytes(), capacity);
            assert_eq!(got.len(), 2);
            let error = got[0].clone().expect_err("oversized line rejected");
            // The same answer the protocol gives a buffered line.
            let buffered = parse_request(&long, 64).expect_err("oversized");
            assert_eq!(error, buffered);
            assert_eq!(got[1], Ok("ok".to_string()));
        }
    }

    #[test]
    fn a_line_at_the_limit_is_kept_whole() {
        let exact = "y".repeat(MAX_LINE_BYTES);
        for text in [format!("{exact}\n"), format!("{exact}\r\n")] {
            assert_eq!(requests(text.as_bytes(), 1000), [Ok(exact.clone())]);
        }
    }

    #[test]
    fn an_endless_line_is_one_oversized_answer() {
        let total = 8 * MAX_LINE_BYTES;
        let endless = std::io::repeat(b'z').take(total as u64);
        let mut input = BufReader::new(endless);
        let first = next_request(&mut input).expect("read").expect("a line");
        assert_eq!(first, Err(ProtocolError::oversized(total)));
        assert_eq!(next_request(&mut input).expect("read"), None);
    }

    #[test]
    fn non_utf8_lines_answer_invalid_json_and_reading_resumes() {
        let got = requests(b"{\"id\":\xff\xfe}\nnext\n", 5);
        assert_eq!(got.len(), 2);
        let error = got[0].clone().expect_err("non-UTF-8 rejected");
        assert_eq!(error.kind, ErrorKind::InvalidJson);
        assert_eq!(got[1], Ok("next".to_string()));
    }
}
