//! `shift-serve`: the paper sweep as a resident query engine.
//!
//! The batch pipeline (`reproduce`) plans a whole-paper [`RunMatrix`] and
//! drains it once; this crate keeps that machinery resident. A daemon
//! accepts plan submissions over localhost HTTP (and, on unix, a unix
//! socket), drains them one at a time into the durable outcome store (the
//! [`shift_sim::Execution`] builder's observed durable mode), streams
//! per-run progress
//! as NDJSON, and serves finished figure/table bundles and scoreboards
//! straight from the durable outcome store — a repeat query for an
//! already-simulated configuration returns instantly without spawning a
//! single simulation.
//!
//! # Endpoints
//!
//! | Method | Path | Body / reply |
//! |---|---|---|
//! | `POST` | `/v1/sweeps` | plan JSON → blocks until done, replies summary |
//! | `GET` | `/v1/sweeps/<id>` | status summary snapshot |
//! | `GET` | `/v1/sweeps/<id>/events` | NDJSON progress stream (close-delimited) |
//! | `GET` | `/v1/sweeps/<id>/artifacts` | the full wire bundle (waits for completion) |
//! | `GET` | `/v1/sweeps/<id>/scoreboard` | the markdown scoreboard (waits) |
//! | `GET` | `/v1/status` | daemon status (jobs, queue depth, drain state) |
//! | `POST` | `/v1/shutdown` | drain, finish queued sweeps, stop listening |
//!
//! The submission body is a [`PlanSpec`](shift_bench::reproduce::PlanSpec):
//! `{"cores": 4, "scale": "Test", "seed": 7, "workloads": ["Tiny"]}` —
//! workloads by catalog name, empty list meaning the full paper suite.
//!
//! [`RunMatrix`]: shift_sim::RunMatrix

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod daemon;
pub mod http;
pub mod protocol;

use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use daemon::{Daemon, Job, JobStatus, ServeConfig, Submission};
pub use protocol::ApiError;

use daemon::JobState;
use http::{read_request, write_response, write_streaming_head, HttpError, Request};

/// How long a connection may sit silent before the daemon gives up on it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

struct ServerCtl {
    stop: AtomicBool,
    addr: SocketAddr,
    unix_path: Option<std::path::PathBuf>,
}

impl ServerCtl {
    /// Wakes every accept loop so it observes the stop flag.
    fn wake(&self) {
        let _ = TcpStream::connect(self.addr);
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
        #[cfg(not(unix))]
        let _ = &self.unix_path;
    }
}

/// A running daemon bound to its listeners.
pub struct Server {
    daemon: Arc<Daemon>,
    ctl: Arc<ServerCtl>,
    accepters: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.ctl.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts the daemon and binds the TCP listener (use port 0 for an
    /// ephemeral port; [`Server::addr`] reports the bound address).
    ///
    /// # Errors
    ///
    /// Propagates bind errors and [`Daemon::start`] filesystem errors.
    pub fn start(config: ServeConfig, listen: impl ToSocketAddrs) -> io::Result<Server> {
        Self::start_with_unix(config, listen, None)
    }

    /// [`Server::start`] plus, on unix, an optional unix-socket listener at
    /// the given path (an existing socket file there is replaced). On
    /// non-unix platforms passing a path is an error.
    ///
    /// # Errors
    ///
    /// Propagates bind errors on either listener.
    pub fn start_with_unix(
        config: ServeConfig,
        listen: impl ToSocketAddrs,
        unix_path: Option<std::path::PathBuf>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        #[cfg(unix)]
        let unix_listener = match &unix_path {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(std::os::unix::net::UnixListener::bind(path)?)
            }
            None => None,
        };
        #[cfg(not(unix))]
        if unix_path.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are only available on unix platforms",
            ));
        }
        let daemon = Daemon::start(config)?;
        let ctl = Arc::new(ServerCtl {
            stop: AtomicBool::new(false),
            addr,
            unix_path,
        });

        let mut accepters = Vec::new();
        {
            let daemon = Arc::clone(&daemon);
            let ctl = Arc::clone(&ctl);
            accepters.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if ctl.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                    let daemon = Arc::clone(&daemon);
                    let ctl = Arc::clone(&ctl);
                    std::thread::spawn(move || handle_connection(&daemon, &ctl, stream));
                }
            }));
        }
        #[cfg(unix)]
        if let Some(listener) = unix_listener {
            let daemon = Arc::clone(&daemon);
            let ctl = Arc::clone(&ctl);
            accepters.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if ctl.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                    let daemon = Arc::clone(&daemon);
                    let ctl = Arc::clone(&ctl);
                    std::thread::spawn(move || handle_connection(&daemon, &ctl, stream));
                }
            }));
        }

        Ok(Server {
            daemon,
            ctl,
            accepters,
        })
    }

    /// The bound TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.ctl.addr
    }

    /// The daemon behind the listeners (for in-process embedding/tests).
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.daemon
    }

    /// Blocks until the server has shut down (via `POST /v1/shutdown` or
    /// [`Server::shutdown`]): all queued sweeps finished, listeners closed.
    pub fn join(mut self) {
        for handle in self.accepters.drain(..) {
            let _ = handle.join();
        }
        self.daemon.drain_and_join();
    }

    /// Drains the daemon, stops the listeners, and blocks until both
    /// are down — the programmatic twin of `POST /v1/shutdown`.
    pub fn shutdown(self) {
        self.daemon.drain();
        self.ctl.stop.store(true, Ordering::Relaxed);
        self.ctl.wake();
        self.join();
    }
}

fn error_response(stream: &mut dyn Write, err: &ApiError) {
    let _ = write_response(
        stream,
        err.status(),
        "application/json",
        err.body().as_bytes(),
    );
}

/// Serves one request on an established connection, then closes it. Write
/// errors are deliberately swallowed: a client hanging up mid-response
/// abandons only its own reply — the sweep and the outcome store never
/// see the disconnect.
fn handle_connection<S: Read + Write>(daemon: &Arc<Daemon>, ctl: &Arc<ServerCtl>, mut stream: S) {
    let request = {
        let mut reader = BufReader::new(&mut stream);
        read_request(&mut reader, daemon.config().max_body)
    };
    let request = match request {
        Ok(request) => request,
        Err(HttpError::Disconnected) => return,
        Err(HttpError::Io(_)) => return,
        Err(HttpError::TooLarge { limit, .. }) => {
            error_response(&mut stream, &ApiError::PayloadTooLarge { limit });
            return;
        }
        Err(HttpError::Malformed(msg)) => {
            error_response(&mut stream, &ApiError::BadRequest(msg));
            return;
        }
    };
    route(daemon, ctl, &request, &mut stream);
}

fn route(daemon: &Arc<Daemon>, ctl: &Arc<ServerCtl>, request: &Request, stream: &mut dyn Write) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/sweeps") => submit_sweep(daemon, &request.body, stream),
        (_, "/v1/sweeps") => error_response(stream, &ApiError::MethodNotAllowed),
        ("GET", "/v1/status") => {
            let _ = write_response(
                stream,
                200,
                "application/json",
                daemon.status_json().as_bytes(),
            );
        }
        (_, "/v1/status") => error_response(stream, &ApiError::MethodNotAllowed),
        ("POST", "/v1/shutdown") => {
            daemon.drain();
            ctl.stop.store(true, Ordering::Relaxed);
            let _ = write_response(stream, 200, "application/json", b"{\"draining\": true}");
            ctl.wake();
        }
        (_, "/v1/shutdown") => error_response(stream, &ApiError::MethodNotAllowed),
        (method, path) if path.starts_with("/v1/sweeps/") => {
            let rest = &path["/v1/sweeps/".len()..];
            let (id, tail) = match rest.split_once('/') {
                Some((id, tail)) => (id, Some(tail)),
                None => (rest, None),
            };
            if method != "GET" {
                return error_response(stream, &ApiError::MethodNotAllowed);
            }
            let Some(job) = daemon.job(id) else {
                return error_response(stream, &ApiError::NotFound);
            };
            match tail {
                None => {
                    let _ = write_response(
                        stream,
                        200,
                        "application/json",
                        job.summary(false).as_bytes(),
                    );
                }
                Some("events") => stream_events(&job, stream),
                Some("artifacts") => serve_finished(&job, stream, |state| {
                    state.bundle.clone().map(|b| (b, "application/json"))
                }),
                Some("scoreboard") => serve_finished(&job, stream, |state| {
                    state.scoreboard.clone().map(|b| (b, "text/markdown"))
                }),
                Some(_) => error_response(stream, &ApiError::NotFound),
            }
        }
        _ => error_response(stream, &ApiError::NotFound),
    }
}

/// `POST /v1/sweeps`: register (or re-find) the job, block until it is
/// done, and answer with the summary — `"cached": true` marking replies
/// that required no scheduling at all.
fn submit_sweep(daemon: &Arc<Daemon>, body: &[u8], stream: &mut dyn Write) {
    let Ok(body) = std::str::from_utf8(body) else {
        return error_response(stream, &ApiError::BadJson("body is not UTF-8".to_owned()));
    };
    match daemon.submit(body) {
        Ok(submission) => {
            let status = submission.job.wait();
            let (code, body) = match status {
                JobStatus::Failed(msg) => {
                    let err = ApiError::Internal(msg);
                    (err.status(), err.body())
                }
                _ => (200, submission.job.summary(submission.cached)),
            };
            let _ = write_response(stream, code, "application/json", body.as_bytes());
        }
        Err(err) => error_response(stream, &err),
    }
}

/// `GET /v1/sweeps/<id>/events`: replay the job's NDJSON event log from
/// the start and keep streaming until the job finishes (close-delimited).
fn stream_events(job: &Arc<Job>, stream: &mut dyn Write) {
    if write_streaming_head(stream, 200, "application/x-ndjson").is_err() {
        return;
    }
    let mut cursor = 0usize;
    loop {
        let (events, finished) = job.wait_events(cursor);
        cursor += events.len();
        for line in &events {
            if stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_err()
            {
                // Mid-stream client disconnect: abandon only this reply.
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
        if finished {
            return;
        }
    }
}

/// Serves a completion artifact (bundle or scoreboard), waiting for the
/// job to finish first; a failed job answers 500 with its error.
fn serve_finished(
    job: &Arc<Job>,
    stream: &mut dyn Write,
    pick: impl Fn(&JobState) -> Option<(Arc<String>, &'static str)>,
) {
    match job.wait() {
        JobStatus::Failed(msg) => error_response(stream, &ApiError::Internal(msg)),
        _ => match job.with_state(|state| pick(state)) {
            Some((body, content_type)) => {
                let _ = write_response(stream, 200, content_type, body.as_bytes());
            }
            None => error_response(
                stream,
                &ApiError::Internal("finished job has no cached artifact".to_owned()),
            ),
        },
    }
}
