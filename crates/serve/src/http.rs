//! A deliberately minimal HTTP/1.1 codec over blocking `std::net` streams.
//!
//! Only what the daemon needs: one request per connection
//! (`Connection: close` on every response), request bodies sized by
//! `Content-Length`, a byte cap on the whole request, and structured JSON
//! error bodies. No chunked encoding, no keep-alive, no TLS — the point is
//! zero dependencies and a codec small enough to audit.

use std::io::{self, IoSlice, Read, Write};

/// A parsed request: method, path, query string, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target, without the query string.
    pub path: String,
    /// The raw query string (after `?`), if any.
    pub query: Option<String>,
    /// The request body (UTF-8; non-UTF-8 bodies are a bad request).
    pub body: String,
}

impl Request {
    /// The value of query parameter `name`, if present (`?stats=json`).
    /// No percent-decoding — the daemon's parameters are plain tokens.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// Why a request could not be read off the wire.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes received do not form a valid HTTP/1.1 request (including
    /// a request truncated mid-header or mid-body).
    BadRequest(String),
    /// The request exceeded the configured byte cap.
    TooLarge,
    /// The socket read timed out before a full request arrived.
    Timeout,
    /// The client hung up before sending anything useful.
    Disconnect,
}

/// Reads one HTTP/1.1 request, enforcing `max_bytes` over the head and
/// body combined. Socket timeouts must already be set by the caller.
pub fn read_request(stream: &mut dyn Read, max_bytes: usize) -> Result<Request, ReadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Each terminator search resumes three bytes before where the last one
    // stopped: a terminator split across reads is still found, and a head
    // sent a byte at a time costs time linear in its length, not quadratic.
    let mut searched = 0;
    let head_end = loop {
        if let Some(end) = find_head_end(&buf[searched..]) {
            break searched + end;
        }
        searched = buf.len().saturating_sub(3);
        if buf.len() > max_bytes {
            return Err(ReadError::TooLarge);
        }
        let n = stream.read(&mut chunk).map_err(classify_io)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(ReadError::Disconnect)
            } else {
                Err(ReadError::BadRequest("truncated request head".into()))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::BadRequest("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| ReadError::BadRequest("request line has no target".into()))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(ReadError::BadRequest("expected an HTTP/1.x request".into())),
    }

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::BadRequest("bad Content-Length".into()))?;
            }
        }
    }
    // Compared without overflow: a huge claimed length must not wrap past
    // the cap.
    if content_length > max_bytes.saturating_sub(head_end + 4) {
        return Err(ReadError::TooLarge);
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(classify_io)?;
        if n == 0 {
            return Err(ReadError::BadRequest("truncated request body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body)
        .map_err(|_| ReadError::BadRequest("request body is not UTF-8".into()))?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target.to_owned(), None),
    };
    Ok(Request {
        method: method.to_owned(),
        path,
        query,
        body,
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn classify_io(e: io::Error) -> ReadError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadError::Timeout,
        _ => ReadError::Disconnect,
    }
}

/// Writes a full response. Every response closes the connection; extra
/// headers are `(name, value)` pairs.
pub fn write_response(
    stream: &mut dyn Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // Head and body leave in one vectored write where the stream takes
    // them whole, so the client wakes once for the data.
    let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(body.as_bytes())];
    let mut unsent = &mut parts[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The daemon's structured JSON error schema:
/// `{"error":{"code":"…","message":"…"}}`.
pub fn error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}\n",
        json_escape(code),
        json_escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(bytes: &[u8]) -> Result<Request, ReadError> {
        let mut cursor = std::io::Cursor::new(bytes.to_vec());
        read_request(&mut cursor, 64 * 1024)
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req =
            read(b"POST /sql?stats=json HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sql");
        assert_eq!(req.param("stats"), Some("json"));
        assert_eq!(req.param("nope"), None);
        assert_eq!(req.body, "hello");
    }

    #[test]
    fn parses_bodyless_get() {
        let req = read(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, None);
        assert_eq!(req.body, "");
    }

    #[test]
    fn truncated_and_garbage_requests_are_bad_requests() {
        assert!(matches!(
            read(b"POST /sql HTTP/1.1\r\nContent-Le"),
            Err(ReadError::BadRequest(_))
        ));
        assert!(matches!(
            read(b"POST /sql HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ReadError::BadRequest(_))
        ));
        assert!(matches!(
            read(b"not an http request\r\n\r\n"),
            Err(ReadError::BadRequest(_))
        ));
        assert!(matches!(
            read(b"POST /sql HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(ReadError::BadRequest(_))
        ));
        assert!(matches!(read(b""), Err(ReadError::Disconnect)));
    }

    /// A reader handing out `bytes` at most `chunk` at a time.
    struct Chunked<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn every_read_size_parses_to_the_same_request() {
        let raw: &[u8] =
            b"POST /sql?stats=json HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let whole = read(raw).unwrap();
        for chunk in 1..=raw.len() {
            let mut reader = Chunked { bytes: raw, chunk };
            assert_eq!(
                read_request(&mut reader, 64 * 1024).unwrap(),
                whole,
                "{chunk}-byte reads"
            );
        }
    }

    #[test]
    fn an_endless_head_a_byte_at_a_time_is_too_large() {
        let cap = 64 * 1024;
        let prefix = "GET / HTTP/1.1\r\nX-Pad: ";
        let raw = format!("{prefix}{}", "a".repeat(cap + 8 - prefix.len()));
        assert_eq!(raw.len(), cap + 8);
        let mut reader = Chunked {
            bytes: raw.as_bytes(),
            chunk: 1,
        };
        assert!(matches!(
            read_request(&mut reader, cap),
            Err(ReadError::TooLarge)
        ));
    }

    #[test]
    fn oversized_requests_are_rejected() {
        let body = "x".repeat(100);
        let raw = format!("POST /sql HTTP/1.1\r\nContent-Length: 100\r\n\r\n{body}");
        let mut cursor = std::io::Cursor::new(raw.into_bytes());
        assert!(matches!(
            read_request(&mut cursor, 64),
            Err(ReadError::TooLarge)
        ));
    }

    #[test]
    fn a_lying_content_length_is_too_large_at_once() {
        // A length that would wrap `head + length` past the cap.
        let raw = format!(
            "POST /sql HTTP/1.1\r\nContent-Length: {}\r\n\r\nhi",
            usize::MAX
        );
        assert!(matches!(read(raw.as_bytes()), Err(ReadError::TooLarge)));
        // Exactly at the cap the request is read; one byte more is refused.
        let cap = 64 * 1024;
        let head =
            |length: usize| format!("POST /sql HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
        let fits = cap - head(10_000).len();
        let body = "x".repeat(fits);
        assert_eq!(head(fits).len() + fits, cap);
        assert_eq!(
            read(format!("{}{body}", head(fits)).as_bytes())
                .unwrap()
                .body,
            body
        );
        let over = format!("{}{body}x", head(fits + 1));
        assert!(matches!(read(over.as_bytes()), Err(ReadError::TooLarge)));
    }

    #[test]
    fn response_is_well_formed() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "text/plain",
            &[("X-Ptk-Cache", "hit")],
            "ok\n",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("X-Ptk-Cache: hit\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok\n"), "{text}");
    }

    /// A writer that takes at most `limit` bytes per call and counts its
    /// calls.
    struct Counted {
        out: Vec<u8>,
        calls: usize,
        limit: usize,
    }

    impl Write for Counted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.out.len();
            for buf in bufs {
                let room = self.limit - (self.out.len() - before);
                self.out.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_when_the_stream_takes_it_whole() {
        let respond = |limit: usize, body: &str| {
            let mut out = Counted {
                out: Vec::new(),
                calls: 0,
                limit,
            };
            write_response(&mut out, 200, "text/plain", &[("X-Ptk-Cache", "hit")], body).unwrap();
            (String::from_utf8(out.out).unwrap(), out.calls)
        };
        let (whole, calls) = respond(usize::MAX, "ok\n");
        assert_eq!(calls, 1);
        assert!(whole.ends_with("\r\n\r\nok\n"), "{whole}");
        // A stream that takes a few bytes at a time still gets every byte,
        // in order, and an empty body costs no extra call.
        for limit in [1, 2, 7, whole.len() - 1] {
            let (bytes, calls) = respond(limit, "ok\n");
            assert_eq!(bytes, whole, "{limit}-byte writes");
            assert_eq!(calls, whole.len().div_ceil(limit), "{limit}-byte writes");
        }
        let (empty, calls) = respond(usize::MAX, "");
        assert!(
            empty.ends_with("Content-Length: 0\r\nConnection: close\r\nX-Ptk-Cache: hit\r\n\r\n"),
            "{empty}"
        );
        assert_eq!(calls, 1);
    }

    #[test]
    fn a_stream_that_takes_nothing_is_an_error() {
        let mut out = Counted {
            out: Vec::new(),
            calls: 0,
            limit: 0,
        };
        let err = write_response(&mut out, 200, "text/plain", &[], "ok").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn error_bodies_escape_json() {
        let body = error_body("query", "bad \"stuff\"\nline two");
        assert_eq!(
            body,
            "{\"error\":{\"code\":\"query\",\"message\":\"bad \\\"stuff\\\"\\nline two\"}}\n"
        );
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
