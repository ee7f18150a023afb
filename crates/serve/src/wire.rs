//! The framed-TCP request path: length-prefixed JSON over a plain socket.
//!
//! Frame format: a 4-byte big-endian payload length, then that many bytes
//! of UTF-8 JSON — [`WireRequest`] client→server, [`WireResponse`]
//! server→client. No HTTP, no TLS, no external dependency: the same
//! zero-dep discipline as the rest of the workspace, and enough protocol
//! for a sidecar or an edge gateway to front a bespoke-model fleet.
//!
//! f64 features and scores travel as JSON numbers. Rust's float formatting
//! is shortest-round-trip (every finite f64 prints to a decimal string that
//! parses back to the same bits), so the wire hop preserves the serving
//! layer's bit-identity contract; non-finite values cannot occur because
//! artifacts are validated finite at load time and the forward is a
//! composition of finite operations.

use crate::{Scored, ServeError, Server};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Upper bound on a frame payload (16 MiB) — a corrupt length prefix must
/// not trigger a giant allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// One classification request: which model, which feature row. `id` is
/// echoed on the response so clients can pipeline requests on one
/// connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed verbatim.
    pub id: u64,
    /// Registry model name.
    pub model: String,
    /// Feature row; its length must match the model's input width.
    pub features: Vec<f64>,
}

/// One classification response. A flat struct rather than a Result-shaped
/// enum: `ok` discriminates, `scores`/`class` are meaningful when `ok`,
/// `error_kind`/`error_detail` when not ([`ServeError::kind`] wire codes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// The request's correlation id (0 when the request was unparsable).
    pub id: u64,
    /// Whether classification succeeded.
    pub ok: bool,
    /// Output voltages per class (empty on error).
    pub scores: Vec<f64>,
    /// Argmax class (0 on error).
    pub class: usize,
    /// Stable error code from [`ServeError::kind`] (empty on success).
    pub error_kind: String,
    /// Human-readable error description (empty on success).
    pub error_detail: String,
}

impl WireResponse {
    /// A success response for `id`.
    pub fn success(id: u64, scored: Scored) -> WireResponse {
        WireResponse {
            id,
            ok: true,
            scores: scored.scores,
            class: scored.class,
            error_kind: String::new(),
            error_detail: String::new(),
        }
    }

    /// An error response for `id`.
    pub fn failure(id: u64, error: &ServeError) -> WireResponse {
        WireResponse {
            id,
            ok: false,
            scores: Vec::new(),
            class: 0,
            error_kind: error.kind().to_string(),
            error_detail: error.to_string(),
        }
    }
}

/// Writes one length-prefixed frame with a single `write_all`.
///
/// The prefix and payload go out in one buffer: written separately, the
/// payload would sit behind Nagle's algorithm until the peer's delayed ACK
/// of the prefix, up to 40 ms per frame.
///
/// # Errors
///
/// Propagates transport failures; rejects payloads over
/// [`MAX_FRAME_BYTES`] as [`std::io::ErrorKind::InvalidData`] before
/// writing anything.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME_BYTES", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates transport failures (including clean EOF as
/// [`std::io::ErrorKind::UnexpectedEof`]); rejects length prefixes over
/// [`MAX_FRAME_BYTES`] as [`std::io::ErrorKind::InvalidData`] without
/// allocating.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length prefix {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// Parses a JSON frame payload: UTF-8 validation, then deserialization.
fn parse_json<T: serde::Deserialize>(raw: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(raw).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// A blocking client for the framed protocol: one connection, sequential
/// request/response with auto-assigned correlation ids.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    next_id: u64,
}

impl WireClient {
    /// Connects to a [`TcpServer`] (or anything speaking the protocol) and
    /// sets `TCP_NODELAY`, so each request frame leaves at once.
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-option failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient { stream, next_id: 1 })
    }

    /// Sends one classification request and blocks for its response,
    /// surfacing server-side rejections as the matching [`ServeError`].
    ///
    /// # Errors
    ///
    /// Transport failures as [`ServeError::Io`]; server rejections mapped
    /// back from their wire kind (`overloaded` → [`ServeError::Overloaded`]
    /// and so on).
    pub fn classify(&mut self, model: &str, features: &[f64]) -> Result<Scored, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = WireRequest {
            id,
            model: model.to_string(),
            features: features.to_vec(),
        };
        let payload = serde_json::to_string(&request).map_err(|e| ServeError::Internal {
            detail: format!("request serialization failed: {e}"),
        })?;
        write_frame(&mut self.stream, payload.as_bytes())?;
        let raw = read_frame(&mut self.stream)?;
        let response: WireResponse = parse_json(&raw).map_err(|e| ServeError::Internal {
            detail: format!("unparsable response frame: {e}"),
        })?;
        if response.id != id {
            return Err(ServeError::Internal {
                detail: format!("response id {} does not match request id {id}", response.id),
            });
        }
        if response.ok {
            Ok(Scored {
                scores: response.scores,
                class: response.class,
            })
        } else {
            Err(match response.error_kind.as_str() {
                "unknown_model" => ServeError::UnknownModel {
                    model: model.to_string(),
                },
                "bad_request" => ServeError::BadRequest {
                    detail: response.error_detail,
                },
                "overloaded" => ServeError::Overloaded {
                    model: model.to_string(),
                },
                "shutting_down" => ServeError::ShuttingDown,
                _ => ServeError::Internal {
                    detail: response.error_detail,
                },
            })
        }
    }
}

/// The TCP front door: an accept loop handing each connection to its own
/// handler thread, all of them funneling into one shared [`Server`].
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

fn handle_connection(server: &Server, mut stream: TcpStream) {
    loop {
        let raw = match read_frame(&mut stream) {
            Ok(raw) => raw,
            // Includes clean EOF: the client hung up.
            Err(_) => return,
        };
        let response = match parse_json::<WireRequest>(&raw) {
            Ok(request) => match server.classify(&request.model, &request.features) {
                Ok(scored) => WireResponse::success(request.id, scored),
                Err(e) => WireResponse::failure(request.id, &e),
            },
            Err(e) => WireResponse::failure(
                0,
                &ServeError::BadRequest {
                    detail: format!("unparsable request frame: {e}"),
                },
            ),
        };
        let Ok(payload) = serde_json::to_string(&response) else {
            return;
        };
        if write_frame(&mut stream, payload.as_bytes()).is_err() {
            return;
        }
    }
}

impl TcpServer {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop. The server handle is shared — the caller keeps its
    /// `Arc` and remains responsible for [`Server::shutdown`] after the
    /// TCP front stops.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(
        server: Arc<Server>,
        bind_addr: impl ToSocketAddrs,
    ) -> Result<TcpServer, ServeError> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            // Connection handlers run detached: they exit when their client
            // disconnects (or errors), holding only an Arc on the server.
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Responses leave at once, as requests do from WireClient.
                if stream.set_nodelay(true).is_err() {
                    continue;
                }
                let server = Arc::clone(&server);
                std::thread::spawn(move || handle_connection(&server, stream));
            }
        });
        Ok(TcpServer {
            addr,
            stop,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address — connect [`WireClient`]s here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the accept loop. Live
    /// connections finish on their own when their clients disconnect; the
    /// underlying [`Server`] keeps answering them until its own
    /// [`Server::shutdown`]. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection to our own
        // port; the loop then observes the stop flag and exits.
        let _ = TcpStream::connect(self.addr);
        let thread = {
            let mut guard = self.accept_thread.lock().unwrap_or_else(|e| e.into_inner());
            guard.take()
        };
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frames").expect("writes");
        write_frame(&mut buf, b"").expect("empty payload is legal");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).expect("first"), b"hello frames");
        assert_eq!(read_frame(&mut cursor).expect("second"), b"");
        assert!(
            read_frame(&mut cursor).is_err(),
            "EOF after the last frame is an error, not a phantom frame"
        );
    }

    /// A `Write` that accepts every byte it is offered and records each
    /// `write` call's bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_carrying_prefix_and_payload() {
        let mut sink = CountingWriter::default();
        write_frame(&mut sink, b"{\"id\":1}").expect("writes");
        write_frame(&mut sink, b"").expect("writes");
        assert_eq!(
            sink.writes,
            vec![b"\0\0\0\x08{\"id\":1}".to_vec(), b"\0\0\0\0".to_vec()],
            "a prefix written apart from its payload stalls behind Nagle"
        );
    }

    #[test]
    fn client_connections_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = WireClient::connect(listener.local_addr().expect("addr")).expect("connect");
        assert!(client.stream.nodelay().expect("reads the socket option"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&(u32::MAX).to_be_bytes());
        raw.extend_from_slice(b"junk");
        let mut cursor = std::io::Cursor::new(raw);
        let err = read_frame(&mut cursor).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn wire_structs_round_trip_json_exactly() {
        let request = WireRequest {
            id: 42,
            model: "Iris".to_string(),
            // Awkward bit patterns: subnormal, negative zero, max finite.
            features: vec![5e-324, -0.0, f64::MAX, 0.1 + 0.2],
        };
        let json = serde_json::to_string(&request).expect("serializes");
        let back: WireRequest = serde_json::from_str(&json).expect("parses");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&request.features),
            bits(&back.features),
            "f64 bits must survive the JSON hop"
        );

        let response = WireResponse::success(
            42,
            Scored {
                scores: vec![0.9303070279367, -0.0000000001],
                class: 0,
            },
        );
        let json = serde_json::to_string(&response).expect("serializes");
        let back: WireResponse = serde_json::from_str(&json).expect("parses");
        assert_eq!(response, back);
    }
}
