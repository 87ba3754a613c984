//! A blocking client for `aced`.
//!
//! One [`Client`] owns one connection and issues one request at a
//! time (the protocol is strictly request/response per connection;
//! open several clients for concurrency). Request ids are assigned
//! monotonically and checked against the response — a mismatch means
//! the stream lost sync and is surfaced as an error rather than a
//! silently misattributed answer.
//!
//! The typed helpers ([`extract`](Client::extract),
//! [`lint`](Client::lint), …) unwrap the one response variant their
//! request can produce; a daemon-side failure comes back as
//! [`ClientError::Service`] carrying the stable
//! [`ErrorCode`](crate::protocol::ErrorCode).

use std::fmt;
use std::io;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;

use ace_core::ExtractOptions;
use ace_layout::LayoutDiff;
use ace_lint::LintConfig;

use crate::frame::{read_frame, write_frame, Stream};
use crate::protocol::{
    decode_response, encode_request, ExtractResult, NetInfo, ProtoError, Request, Response,
    ServiceError, ServiceStatus, WireDiagnostic, WireReport,
};

/// Why a call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connection failure (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The daemon answered, but the answer was malformed or out of
    /// sync with the request.
    Protocol(ProtoError),
    /// The daemon refused or failed the request.
    Service(ServiceError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Service(e) => write!(f, "service error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// A blocking `aced` connection.
pub struct Client {
    stream: Stream,
    next_id: i64,
}

impl Client {
    /// Connects over a Unix socket.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        Ok(Client {
            stream: Stream::Unix(UnixStream::connect(path)?),
            next_id: 1,
        })
    }

    /// Connects over TCP (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response framing sends small messages; leaving
        // Nagle on costs a delayed-ACK stall per request.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: Stream::Tcp(stream),
            next_id: 1,
        })
    }

    /// Sends one request and waits for its response. Failure
    /// responses are returned as `Ok(Response::Error(..))` here; the
    /// typed helpers below lift them into [`ClientError::Service`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure,
    /// [`ClientError::Protocol`] on a malformed or miscorrelated
    /// response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_request(id, request))?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ))
        })?;
        let (echo, response) = decode_response(&payload)?;
        // A decode failure on the daemon side answers with id 0.
        if echo != id && echo != 0 {
            return Err(ClientError::Protocol(ProtoError {
                message: format!("response id {echo} for request {id}: stream out of sync"),
            }));
        }
        Ok(response)
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, ClientError> {
        let response = self.call(request)?;
        if let Response::Error(e) = response {
            return Err(ClientError::Service(e));
        }
        pick(response).ok_or_else(|| {
            ClientError::Protocol(ProtoError {
                message: "response variant does not match the request".into(),
            })
        })
    }

    /// Opens a session; returns the band count the daemon chose.
    ///
    /// # Errors
    ///
    /// See [`Client::call`]; daemon refusals become
    /// [`ClientError::Service`].
    pub fn open(
        &mut self,
        session: &str,
        cif: &str,
        bands: usize,
        options: ExtractOptions,
    ) -> Result<usize, ClientError> {
        self.expect(
            &Request::Open {
                session: session.to_string(),
                cif: cif.to_string(),
                bands,
                options,
            },
            |r| match r {
                Response::Opened { bands, .. } => Some(bands),
                _ => None,
            },
        )
    }

    /// Extracts the session's current layout.
    ///
    /// # Errors
    ///
    /// See [`Client::open`].
    pub fn extract(&mut self, session: &str) -> Result<ExtractResult, ClientError> {
        self.expect(
            &Request::Extract {
                session: session.to_string(),
            },
            |r| match r {
                Response::Extracted(result) => Some(result),
                _ => None,
            },
        )
    }

    /// Applies an unsequenced edit and re-extracts.
    ///
    /// Equivalent to [`edit_diff_seq`](Client::edit_diff_seq) with
    /// `seq: None`: the daemon applies the diff unconditionally, so a
    /// retry after a timeout may apply it twice. Callers that retry
    /// should number their edits and use `edit_diff_seq`.
    ///
    /// # Errors
    ///
    /// See [`Client::open`].
    pub fn edit_diff(
        &mut self,
        session: &str,
        diff: &LayoutDiff,
    ) -> Result<ExtractResult, ClientError> {
        self.edit_diff_seq(session, None, diff)
    }

    /// Applies an edit with a per-session sequence number and
    /// re-extracts.
    ///
    /// Sequence numbers make retries safe: the daemon applies an edit
    /// only when `seq` is greater than the session's last applied
    /// sequence number, and acknowledges a duplicate (`seq` at or
    /// below it) idempotently from the current snapshot without
    /// re-applying the diff. After a [`ErrorCode::Timeout`] the caller
    /// can re-send the *same* `seq` and diff; whichever attempt runs
    /// first wins and the other is discarded or acknowledged, never
    /// applied twice.
    ///
    /// [`ErrorCode::Timeout`]: crate::protocol::ErrorCode::Timeout
    ///
    /// # Errors
    ///
    /// See [`Client::open`].
    pub fn edit_diff_seq(
        &mut self,
        session: &str,
        seq: Option<i64>,
        diff: &LayoutDiff,
    ) -> Result<ExtractResult, ClientError> {
        self.expect(
            &Request::EditDiff {
                session: session.to_string(),
                seq,
                diff: diff.clone(),
            },
            |r| match r {
                Response::Extracted(result) => Some(result),
                _ => None,
            },
        )
    }

    /// Runs the ERC rules over the session's circuit.
    ///
    /// # Errors
    ///
    /// See [`Client::open`].
    pub fn lint(
        &mut self,
        session: &str,
        config: &LintConfig,
    ) -> Result<(Vec<WireDiagnostic>, WireReport), ClientError> {
        self.expect(
            &Request::Lint {
                session: session.to_string(),
                config: config.clone(),
            },
            |r| match r {
                Response::Linted {
                    diagnostics,
                    report,
                } => Some((diagnostics, report)),
                _ => None,
            },
        )
    }

    /// Runs the geometric design-rule checker over the session's
    /// layout. `deck` is rule-deck text (`None` uses the daemon's
    /// default NMOS λ-deck).
    ///
    /// # Errors
    ///
    /// See [`Client::open`].
    pub fn drc(
        &mut self,
        session: &str,
        deck: Option<&str>,
        config: &LintConfig,
    ) -> Result<(Vec<WireDiagnostic>, WireReport), ClientError> {
        self.expect(
            &Request::Drc {
                session: session.to_string(),
                deck: deck.map(str::to_string),
                config: config.clone(),
            },
            |r| match r {
                Response::DrcChecked {
                    diagnostics,
                    report,
                } => Some((diagnostics, report)),
                _ => None,
            },
        )
    }

    /// Looks a net up by name.
    ///
    /// # Errors
    ///
    /// See [`Client::open`].
    pub fn query_net(&mut self, session: &str, net: &str) -> Result<NetInfo, ClientError> {
        self.expect(
            &Request::QueryNet {
                session: session.to_string(),
                net: net.to_string(),
            },
            |r| match r {
                Response::Net(info) => Some(info),
                _ => None,
            },
        )
    }

    /// Closes a session; returns whether it existed.
    ///
    /// # Errors
    ///
    /// See [`Client::open`].
    pub fn close(&mut self, session: &str) -> Result<bool, ClientError> {
        self.expect(
            &Request::Close {
                session: session.to_string(),
            },
            |r| match r {
                Response::Closed { existed, .. } => Some(existed),
                _ => None,
            },
        )
    }

    /// Fetches daemon-wide statistics.
    ///
    /// # Errors
    ///
    /// See [`Client::open`].
    pub fn status(&mut self) -> Result<ServiceStatus, ClientError> {
        self.expect(&Request::Status, |r| match r {
            Response::Status(s) => Some(s),
            _ => None,
        })
    }
}
