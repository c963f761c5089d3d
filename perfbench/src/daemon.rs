//! Driving a `ptk serve` process: spawn it, wait for its ready file, talk
//! HTTP/1.1 to it (one request per connection, as the daemon speaks
//! `Connection: close`), scrape it, and stop it.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to load its table and bind.
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a daemon may take to exit after `POST /shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `ptk serve` child. Dropping it kills and reaps the process,
/// so no error path can leave a daemon behind.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    head: String,
    pub body: String,
}

impl Response {
    /// The value of response header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

impl Daemon {
    /// Spawns `ptk serve csv` on an OS-assigned loopback port with `threads`
    /// workers and returns once the ready file names the bound address,
    /// with the time from spawn to ready (process start plus CSV load).
    pub fn spawn(
        ptk: &Path,
        csv: &Path,
        threads: usize,
        ready: &Path,
    ) -> io::Result<(Daemon, Duration)> {
        let _ = std::fs::remove_file(ready);
        let started = Instant::now();
        let child = Command::new(ptk)
            .arg("serve")
            .arg(csv)
            .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
            .arg("--ready-file")
            .arg(ready)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(ready) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_owned();
                    return Ok((daemon, started.elapsed()));
                }
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "ptk serve exited early: {status}"
                )));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("ptk serve never wrote its ready file"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /sql` with `statement` as the body.
    pub fn sql(&self, statement: &str) -> io::Result<Response> {
        post_sql(&self.addr, statement)
    }

    /// `GET path`.
    pub fn get(&self, path: &str) -> io::Result<Response> {
        request(
            &self.addr,
            &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"),
        )
    }

    /// `POST /shutdown`, then waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let response = request(
            &self.addr,
            "POST /shutdown HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n",
        )?;
        if response.status != 200 {
            return Err(io::Error::other(format!(
                "shutdown answered {}",
                response.status
            )));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("ptk serve exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("ptk serve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sends one raw HTTP request on a fresh connection and reads the
/// response to EOF (the daemon closes every connection after replying).
fn request(addr: &str, raw: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(raw.as_bytes())?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    let text = String::from_utf8(bytes).map_err(|e| io::Error::other(e.to_string()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("response without a header terminator"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line in {head:?}")))?;
    Ok(Response {
        status,
        head: head.to_owned(),
        body: body.to_owned(),
    })
}

/// `POST /sql` to the daemon at `addr`, with `statement` as the body.
pub fn post_sql(addr: &str, statement: &str) -> io::Result<Response> {
    request(
        addr,
        &format!(
            "POST /sql HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{statement}",
            statement.len()
        ),
    )
}

/// Parses a Prometheus text exposition into `name -> value` (label-free
/// series only; bucket series are skipped).
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn vm_hwm_mib(pid: &str) -> io::Result<f64> {
    status_mib(pid, "VmHWM:")
}

/// Current resident set size (`VmRSS`) of process `pid`, in MiB.
pub fn vm_rss_mib(pid: &str) -> io::Result<f64> {
    status_mib(pid, "VmRSS:")
}

/// Resets this process's `VmHWM` to its current resident set size, so a
/// later peak covers only what runs after the reset.
pub fn reset_vm_hwm() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

fn status_mib(pid: &str, field: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no {field} line")))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_scrapes_parse_plain_series() {
        let text = "# HELP ptk_serve_cache_hits Result-cache hits.\n\
                    # TYPE ptk_serve_cache_hits counter\n\
                    ptk_serve_cache_hits 41\n\
                    ptk_serve_latency_ms_bucket{le=\"1\"} 3\n\
                    ptk_serve_latency_ms_p50 0.5\n";
        let m = parse_prometheus(text);
        assert_eq!(m.len(), 2);
        assert_eq!(m["ptk_serve_cache_hits"], 41.0);
        assert_eq!(m["ptk_serve_latency_ms_p50"], 0.5);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(vm_hwm_mib("self").unwrap() > 0.0);
    }
}
