//! The client side: a keep-alive HTTP/1.1 connection (over a socket,
//! or straight into an in-process engine) and the study operations the
//! load generator issues through it, each recorded.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use tuna_serve::http::{request_bytes_auth, ResponseParser};
use tuna_stats::json;

use crate::clock::{ms, now};
use crate::workload::Study;

/// One client connection: sends a request, returns `(status, body)`.
/// A connection the server closes is reopened on the next call.
pub trait Transport {
    fn call(&mut self, request: &[u8]) -> Result<(u16, String), String>;
}

/// Opens connections to one server.
pub trait Connector: Sync {
    fn connect(&self) -> Box<dyn Transport + Send + '_>;
}

/// A keep-alive TCP connection to `tunad`.
pub struct TcpConn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    parser: ResponseParser,
}

impl TcpConn {
    pub fn new(addr: SocketAddr) -> Self {
        TcpConn {
            addr,
            stream: None,
            parser: ResponseParser::new(),
        }
    }
}

impl Transport for TcpConn {
    fn call(&mut self, request: &[u8]) -> Result<(u16, String), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            self.stream = Some(s);
            self.parser = ResponseParser::new();
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| {
                let mut buf = [0u8; 64 * 1024];
                loop {
                    if let Some(r) = self.parser.next_response()? {
                        return Ok(r);
                    }
                    match stream.read(&mut buf) {
                        Ok(0) => return Err("connection closed mid-response".to_string()),
                        Ok(n) => self.parser.feed(&buf[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(format!("read: {e}")),
                    }
                }
            });
        match result {
            Ok(r) => {
                if !r.keep_alive {
                    self.stream = None;
                }
                Ok((r.status, r.body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Opens [`TcpConn`]s to a daemon.
pub struct TcpConnector(pub SocketAddr);

impl Connector for TcpConnector {
    fn connect(&self) -> Box<dyn Transport + Send + '_> {
        Box::new(TcpConn::new(self.0))
    }
}

/// What one load-generator thread saw.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Status and results reads: round trip from when each was due, µs.
    pub reads_us: Vec<f64>,
    /// Per study: from when its submit was due to the poll that saw it
    /// done, ms.
    pub studies_ms: Vec<f64>,
    /// How late each scheduled send started, ms.
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    /// Requests that failed, were refused or shed, plus mismatched
    /// results documents.
    pub failed: u64,
    pub mismatched: u64,
    /// Studies that ended in any state but done.
    pub lost: u64,
    /// Last results document fetched.
    pub last_fetch: Option<Instant>,
    /// A few failure descriptions, for the report on stderr.
    pub errors: Vec<String>,
}

impl Recorder {
    pub fn merge(&mut self, other: Recorder) {
        self.reads_us.extend(other.reads_us);
        self.studies_ms.extend(other.studies_ms);
        self.lag_ms.extend(other.lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.lost += other.lost;
        self.last_fetch = self.last_fetch.max(other.last_fetch);
        for e in other.errors {
            self.note(e);
        }
    }

    pub fn lag(&mut self, due: Instant) {
        self.lag_ms.push(ms(due, now()));
    }

    fn note(&mut self, error: String) {
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.note(error);
    }
}

/// A study's state as a status read reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Running,
    Done,
    /// Cancelled: the study will never be done.
    Ended,
    /// The read failed; poll again.
    Unknown,
}

/// A connection plus its recorder.
pub struct Client<'a> {
    conn: Box<dyn Transport + Send + 'a>,
    pub rec: Recorder,
}

impl<'a> Client<'a> {
    pub fn new(connector: &'a dyn Connector) -> Self {
        Client {
            conn: connector.connect(),
            rec: Recorder::default(),
        }
    }

    /// One request expecting `want`; the body, or `None` on any other
    /// outcome (counted as failed).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        token: Option<&str>,
        want: u16,
    ) -> Option<String> {
        self.rec.attempted += 1;
        match self
            .conn
            .call(&request_bytes_auth(method, path, body, true, token))
        {
            Ok((status, body)) if status == want => Some(body),
            Ok((status, body)) => {
                self.rec
                    .fail(format!("{method} {path}: {status} {}", body.trim()));
                None
            }
            Err(e) => {
                self.rec.fail(format!("{method} {path}: {e}"));
                None
            }
        }
    }

    /// Submits a study; whether it was accepted.
    pub fn submit(&mut self, study: &Study) -> bool {
        self.request("POST", "/v1/studies", &study.body, study.token, 201)
            .is_some()
    }

    /// Reads a study's state; the read was due at `due`.
    pub fn state(&mut self, study: &Study, due: Instant) -> State {
        let path = format!("/v1/studies/{}", study.name);
        let body = self.request("GET", &path, "", study.token, 200);
        self.rec.reads_us.push(ms(due, now()) * 1e3);
        let state = body.and_then(|b| {
            json::parse(&b)
                .ok()
                .and_then(|v| v.get("state").and_then(|s| s.as_str()).map(str::to_string))
        });
        match state.as_deref() {
            Some("running") => State::Running,
            Some("done") => State::Done,
            Some(other) => {
                self.rec.lost += 1;
                self.rec
                    .note(format!("{}: ended {other:?}, not done", study.name));
                State::Ended
            }
            None => State::Unknown,
        }
    }

    /// Records a study the last status read saw done, then fetches its
    /// results and checks them byte for byte against the batch
    /// document. The study's latency runs from `submit_due` to that
    /// status read.
    pub fn finish(&mut self, study: &Study, expected: &str, submit_due: Instant) {
        let due = now();
        self.rec.studies_ms.push(ms(submit_due, due));
        let path = format!("/v1/studies/{}/results", study.name);
        let body = self.request("GET", &path, "", study.token, 200);
        let done = now();
        self.rec.reads_us.push(ms(due, done) * 1e3);
        self.rec.last_fetch = Some(done);
        if let Some(doc) = body {
            if doc != expected {
                self.rec.mismatched += 1;
                self.rec.fail(format!(
                    "{}: results document differs from the batch campaign's",
                    study.name
                ));
            }
        }
    }
}
