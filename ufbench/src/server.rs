//! A real `ufilter serve` child process and line-protocol connections to it.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads the server runs with (the box has two cores).
pub const WORKERS: usize = 2;

/// How long a polled request spins for its reply before it sleeps in
/// `read` like any other.
pub const SPIN_LIMIT: Duration = Duration::from_millis(1);

/// How long any single reply may take before the benchmark gives up.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    // Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    /// Seconds from spawn to the first `OK pong`.
    pub setup_s: f64,
}

impl Server {
    /// Spawn `bin serve` over `sql`, registering `views` (a manifest) and/or
    /// recovering `data_dir`, and wait until it answers `PING`.
    pub fn spawn(
        bin: &Path,
        sql: &Path,
        views: Option<&Path>,
        data_dir: Option<&Path>,
    ) -> Result<Server, String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--schema").arg(sql);
        if let Some(v) = views {
            cmd.arg("--views").arg(v);
        }
        if let Some(d) = data_dir {
            cmd.arg("--data-dir").arg(d);
        }
        cmd.args(["--workers", &WORKERS.to_string(), "serve"]);
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before LISTENING".into());
            }
            addr = line.trim().strip_prefix("LISTENING ").map(str::to_string);
        }
        let addr = addr.expect("loop ends on LISTENING");
        let mut server = Server { child, _stdout: stdout, addr, setup_s: 0.0 };
        let reply = server.connect()?.request("PING")?;
        if reply != "OK pong" {
            return Err(format!("PING answered {reply:?}"));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// A fresh connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Peak resident memory of the server process (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line")?;
        Ok(kib / 1024.0)
    }

    /// The server's `STATS` counters.
    pub fn stats(&self) -> Result<std::collections::HashMap<String, u64>, String> {
        let reply = self.connect()?.request("STATS")?;
        let body = reply.strip_prefix("OK ").ok_or_else(|| format!("STATS answered {reply:?}"))?;
        Ok(body
            .split(' ')
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
            .collect())
    }

    /// Ask the server to stop, then reap it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.connect()?.request("SHUTDOWN")?;
        if reply != "OK bye" {
            return Err(format!("SHUTDOWN answered {reply:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after SHUTDOWN".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: BufWriter::new(stream) })
    }

    /// Send one line and flush.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| e.to_string())
    }

    /// Read one reply line (without its newline).
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end_matches(['\r', '\n']).to_string()),
            Err(e) => Err(format!("read reply: {e}")),
        }
    }

    /// Send one line and read its one-line reply.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.read_line()
    }

    /// [`request`](Self::request), polling for the reply for up to
    /// [`SPIN_LIMIT`] before sleeping in `read`: the measuring thread rarely
    /// waits on a wake-up, whose cost on a virtual machine varies with the
    /// host's load.
    pub fn request_polled(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        let stream = self.reader.get_ref();
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let spin_until = Instant::now() + SPIN_LIMIT;
        let mut bytes = Vec::new();
        let result = loop {
            match self.reader.fill_buf() {
                Ok([]) => break Err("server closed the connection".to_string()),
                Ok(buf) => match buf.iter().position(|b| *b == b'\n') {
                    Some(pos) => {
                        bytes.extend_from_slice(&buf[..pos]);
                        self.reader.consume(pos + 1);
                        break Ok(());
                    }
                    None => {
                        let n = buf.len();
                        bytes.extend_from_slice(buf);
                        self.reader.consume(n);
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // A reply this late is waiting on the server, not on a
                    // wake-up: stop burning the CPU the server may need.
                    if Instant::now() > spin_until {
                        self.reader.get_ref().set_nonblocking(false).map_err(|e| e.to_string())?;
                    }
                    std::hint::spin_loop();
                }
                Err(e) => break Err(format!("read reply: {e}")),
            }
        };
        self.reader.get_ref().set_nonblocking(false).map_err(|e| e.to_string())?;
        result?;
        String::from_utf8(bytes)
            .map(|s| s.trim_end_matches('\r').to_string())
            .map_err(|e| e.to_string())
    }

    /// Send a multi-line request and read the `OK <n>` header's body up to
    /// and including the `END` line (BATCHALL) or `n` lines (METRICS).
    pub fn request_block(&mut self, lines: &str, until_end: bool) -> Result<Vec<String>, String> {
        self.writer.write_all(lines.as_bytes()).map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let head = self.read_line()?;
        let n: usize = head
            .strip_prefix("OK ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("unexpected reply {head:?}"))?;
        let mut out = vec![head];
        loop {
            if !until_end && out.len() == n + 1 {
                return Ok(out);
            }
            let line = self.read_line()?;
            let end = line.starts_with("END ");
            out.push(line);
            if until_end && end {
                return Ok(out);
            }
        }
    }
}
