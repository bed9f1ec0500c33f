//! The one TCP line server and line client both wire protocols (`wire`
//! and `sgd-dist`'s) run on; a protocol supplies only its per-line answer.
//!
//! One `\n`-terminated request per line, one reply line each. The byte
//! bound is enforced *while reading* (an oversized line is drained, never
//! buffered), a read timeout ends a silent connection, and locks are
//! poison-tolerant so one panicking handler cannot wedge later
//! connections. Every socket sets `TCP_NODELAY` and every line goes out
//! with its `\n` in one `write_all`: a line written as two segments waits
//! for the ACK of the first, which the peer delays (~40 ms) because it has
//! nothing to send until the line is complete (Nagle + delayed ACK).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One bounded-buffer line read.
enum LineRead {
    /// A complete line (terminator stripped) within the byte bound; its
    /// bytes are in the caller's buffer.
    Line,
    /// The line exceeded the bound; its bytes were drained, not kept.
    TooLong,
}

/// Reads one `\n`-terminated line through the reader's own buffer into
/// `buf` (cleared first, capacity reused across calls), never holding
/// more than `max_bytes` of it: past the bound the rest of the line is
/// consumed and discarded. `Ok(None)` is EOF.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<LineRead>> {
    buf.clear();
    let mut overflow = false;
    let mut saw_any = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if !saw_any {
                return Ok(None);
            }
            break;
        }
        saw_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !overflow {
            if buf.len().saturating_add(take) > max_bytes {
                overflow = true;
                buf.clear();
            } else {
                // analyzer: allow(hot-path-alloc) -- growth bounded by max_line_bytes; capacity reused across requests
                buf.extend_from_slice(chunk.get(..take).unwrap_or(&[]));
            }
        }
        let eat = take + usize::from(newline.is_some());
        reader.consume(eat);
        if newline.is_some() {
            break;
        }
    }
    if overflow {
        Ok(Some(LineRead::TooLong))
    } else {
        Ok(Some(LineRead::Line))
    }
}

/// `true` for the error kinds a read timeout surfaces as.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Poison-tolerant mutex lock: a panicking handler thread must not wedge
/// shared state for every later request (the registry's discipline,
/// applied to the front-ends).
pub fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Accepts `connections` connections and serves each with `handle` on at
/// most `workers` scoped threads, each claiming a connection slot before
/// it accepts. A failed connection (I/O error, peer reset) ends only
/// itself. Returns the sum of `handle`'s counts, or the first error.
// analyzer: root(panic-freedom) -- wire request entry point: the accept loop serving untrusted connections
pub fn serve_connections<F>(
    listener: &TcpListener,
    connections: usize,
    workers: usize,
    handle: F,
) -> std::io::Result<usize>
where
    F: Fn(TcpStream) -> std::io::Result<usize> + Sync,
{
    let claimed = Mutex::new(0usize);
    let total: Mutex<std::io::Result<usize>> = Mutex::new(Ok(0));
    std::thread::scope(|s| {
        for _ in 0..workers.max(1).min(connections.max(1)) {
            s.spawn(|| loop {
                {
                    let mut n = lock_tolerant(&claimed);
                    if *n >= connections {
                        break;
                    }
                    *n += 1;
                }
                let served = listener.accept().and_then(|(stream, _addr)| handle(stream));
                let mut total = lock_tolerant(&total);
                match (total.as_mut(), served) {
                    (Ok(sum), Ok(h)) => *sum += h,
                    (Ok(_), Err(e)) => *total = Err(e),
                    (Err(_), _) => {}
                }
            });
        }
    });
    total.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Per-connection socket setup: the read timeout and `TCP_NODELAY`, then
/// the stream split into [`serve_lines`]' reader and writer.
pub fn setup_connection(
    stream: TcpStream,
    read_timeout: Option<Duration>,
) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_read_timeout(read_timeout)?;
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// The request loop: `answer` appends the reply to each request line read
/// within `max_line_bytes` (lossy UTF-8, `\r` trimmed, blank lines
/// skipped); an oversized line gets the prebuilt `too_long_reply`. Each
/// reply and its `\n` go out in one `write_all`. EOF or a read timeout
/// ends the connection cleanly with the count of lines answered.
// analyzer: root(panic-freedom) -- wire request entry point: the per-line protocol core of both wire protocols
// analyzer: root(hot-path-alloc) -- per-request reply path: shed/too-long replies must not allocate under overload
pub fn serve_lines<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    max_line_bytes: usize,
    too_long_reply: &str,
    mut answer: impl FnMut(&str, &mut String),
) -> std::io::Result<usize> {
    let mut handled = 0;
    // analyzer: allow(hot-path-alloc) -- one buffer per connection, reused across requests
    let mut line_buf: Vec<u8> = Vec::new();
    // analyzer: allow(hot-path-alloc) -- one reply buffer per connection, reused across requests
    let mut reply = String::new();
    loop {
        let read = match read_bounded_line(&mut reader, max_line_bytes, &mut line_buf) {
            Ok(r) => r,
            Err(e) if is_timeout(&e) => return Ok(handled),
            Err(e) => return Err(e),
        };
        reply.clear();
        match read {
            None => return Ok(handled),
            Some(LineRead::TooLong) => reply.push_str(too_long_reply),
            Some(LineRead::Line) => {
                let line = String::from_utf8_lossy(&line_buf);
                let line = line.trim_end_matches('\r');
                if line.trim().is_empty() {
                    continue;
                }
                answer(line, &mut reply);
            }
        }
        // analyzer: allow(hot-path-alloc) -- appends into the reused reply buffer's capacity
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
        handled += 1;
    }
}

/// The client side: one persistent `TCP_NODELAY` connection, each request
/// line sent in one write from a buffer reused across round trips.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl LineClient {
    /// Connects to a line server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(LineClient { writer, reader, buf: String::new() })
    }

    /// The connection's socket.
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    /// Sends the line `encode` writes (no terminator) and returns the
    /// reply line, trimmed. A server that closes instead of replying is
    /// [`std::io::ErrorKind::UnexpectedEof`].
    pub fn round_trip(&mut self, encode: impl FnOnce(&mut String)) -> std::io::Result<&str> {
        self.buf.clear();
        encode(&mut self.buf);
        self.buf.push('\n');
        self.writer.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            let eof = std::io::ErrorKind::UnexpectedEof;
            return Err(std::io::Error::new(eof, "server closed the connection"));
        }
        Ok(self.buf.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_all(input: &[u8], max: usize) -> Vec<(Option<bool>, Vec<u8>)> {
        let mut reader = BufReader::with_capacity(4, input);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_bounded_line(&mut reader, max, &mut buf).expect("io") {
                None => {
                    out.push((None, Vec::new()));
                    return out;
                }
                Some(LineRead::Line) => out.push((Some(true), buf.clone())),
                Some(LineRead::TooLong) => out.push((Some(false), Vec::new())),
            }
        }
    }

    #[test]
    fn lines_are_split_and_bounded() {
        let got = read_all(b"ab\ncdef\nx", 3);
        assert_eq!(got[0], (Some(true), b"ab".to_vec()));
        assert_eq!(got[1], (Some(false), Vec::new()), "4 bytes over a 3-byte bound");
        assert_eq!(got[2], (Some(true), b"x".to_vec()), "unterminated tail still read");
        assert_eq!(got[3].0, None);
    }

    #[test]
    fn oversized_line_is_drained_not_buffered() {
        // The line spans many 4-byte reader chunks; after the overflow the
        // next line must come through intact.
        let long = vec![b'z'; 64];
        let mut input = long.clone();
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let got = read_all(&input, 8);
        assert_eq!(got[0].0, Some(false));
        assert_eq!(got[1], (Some(true), b"ok".to_vec()));
    }

    #[test]
    fn lock_tolerant_recovers_from_poison() {
        let m = Mutex::new(5);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().expect("fresh");
            panic!("poison it");
        }));
        assert_eq!(*lock_tolerant(&m), 5);
    }
}
