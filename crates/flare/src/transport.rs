//! Frame transports: an in-process pair and TCP.
//!
//! The in-process pair is two [`crate::reactor::FrameQueue`]s, the
//! mailbox every simulator session already runs on, so in-process links
//! have one channel implementation. Both transports move opaque byte
//! frames; the [`crate::wire`] codec and
//! [`crate::security::SecureChannel`] layers sit on top, so the simulator
//! and a real multi-process deployment run byte-identical protocols.

use crate::reactor::{FrameQueue, QueueRx, QueueTx};
use crate::FlareError;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sending half of a connection.
pub trait FrameTx: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] when the peer is gone.
    fn send(&mut self, frame: &[u8]) -> Result<(), FlareError>;
}

/// Receiving half of a connection.
pub trait FrameRx: Send {
    /// Receives one frame, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`FlareError::Timeout`] if no frame starts before the deadline
    /// (the connection is still in step, so the caller may retry);
    /// [`FlareError::Transport`] when the peer is gone or a started frame
    /// does not complete.
    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, FlareError>;
}

/// A bidirectional connection that can be split into halves owned by
/// different threads.
pub struct Connection {
    /// Sending half.
    pub tx: Box<dyn FrameTx>,
    /// Receiving half.
    pub rx: Box<dyn FrameRx>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------

/// Creates a connected in-process pair: one [`FrameQueue`] per
/// direction, the same mailbox that carries every
/// [`crate::server::FlServer::serve_session`] session, so a dropped half
/// disconnects its peer and buffered frames still deliver after a close.
pub fn in_proc_pair() -> (Connection, Connection) {
    let (a_to_b, b_to_a) = (FrameQueue::new(), FrameQueue::new());
    (
        Connection {
            tx: Box::new(QueueTx(Arc::clone(&a_to_b))),
            rx: Box::new(QueueRx(Arc::clone(&b_to_a))),
        },
        Connection {
            tx: Box::new(QueueTx(b_to_a)),
            rx: Box::new(QueueRx(a_to_b)),
        },
    )
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// Default write deadline for TCP streams: a peer that stops draining its
/// socket must surface as [`FlareError::Timeout`] instead of blocking a
/// server handler thread forever. It is also how long a receiver waits
/// for the rest of a frame once the frame's first byte has arrived.
pub const TCP_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The sending half of a TCP connection. A frame is a 4-byte
/// little-endian length and the body; once any byte of a frame is on the
/// wire, the peer can only stay in step if the rest follows. So a send
/// that fails part-way shuts the write half down — the peer reads EOF
/// mid-frame instead of the next frame's bytes as this one's — and marks
/// the stream broken: every later send fails with
/// [`FlareError::Transport`] without writing. A send that wrote nothing
/// leaves the stream usable, so its timeout stays retryable.
struct TcpTx {
    stream: TcpStream,
    broken: bool,
}

impl FrameTx for TcpTx {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlareError> {
        if self.broken {
            return Err(FlareError::Transport(
                "tcp stream broken by an earlier partial send".into(),
            ));
        }
        let len = u32::try_from(frame.len())
            .map_err(|_| FlareError::Transport("frame exceeds u32 length".into()))?;
        let head = len.to_le_bytes();
        let total = head.len() + frame.len();
        let mut written = 0;
        while written < total {
            let bufs = [
                IoSlice::new(&head[written.min(head.len())..]),
                IoSlice::new(&frame[written.saturating_sub(head.len())..]),
            ];
            let err = match self.stream.write_vectored(&bufs) {
                Ok(0) => FlareError::Transport("tcp send wrote nothing".into()),
                Ok(n) => {
                    written += n;
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_timeout(&e) => FlareError::Timeout,
                Err(e) => FlareError::Transport(format!("tcp send: {e}")),
            };
            if written > 0 {
                self.broken = true;
                // Best effort: the stream is unusable either way.
                let _ = self.stream.shutdown(Shutdown::Write);
            }
            return Err(err);
        }
        Ok(())
    }
}

struct TcpRx(TcpStream);

impl TcpRx {
    /// Fills `buf` from the stream by `deadline`. Runs only once a frame
    /// has begun, so every failure — a stall included — is a
    /// [`FlareError::Transport`]: returning the retryable `Timeout` here
    /// would let the caller's next `recv` read mid-frame bytes as a
    /// length prefix.
    fn read_rest(&mut self, buf: &mut [u8], deadline: Instant) -> Result<(), FlareError> {
        let mut filled = 0;
        while filled < buf.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(FlareError::Transport("tcp frame stalled mid-read".into()));
            }
            self.0
                .set_read_timeout(Some(left))
                .map_err(|e| FlareError::Transport(format!("set timeout: {e}")))?;
            match self.0.read(&mut buf[filled..]) {
                Ok(0) => return Err(FlareError::Transport("tcp peer closed mid-frame".into())),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(FlareError::Transport(format!("tcp recv mid-frame: {e}"))),
            }
        }
        Ok(())
    }
}

impl FrameRx for TcpRx {
    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, FlareError> {
        // Only the wait for a frame's first byte runs under the caller's
        // timeout; once any byte is in, the rest of the frame gets
        // TCP_WRITE_TIMEOUT, so a slow body never splits a frame in two.
        self.0
            .set_read_timeout(Some(timeout))
            .map_err(|e| FlareError::Transport(format!("set timeout: {e}")))?;
        let mut len_bytes = [0u8; 4];
        loop {
            match self.0.read(&mut len_bytes[..1]) {
                Ok(0) => return Err(FlareError::Transport("tcp peer closed".into())),
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => return Err(FlareError::Timeout),
                Err(e) => return Err(FlareError::Transport(format!("tcp recv: {e}"))),
            }
        }
        let deadline = Instant::now() + TCP_WRITE_TIMEOUT;
        self.read_rest(&mut len_bytes[1..], deadline)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > (1 << 30) {
            return Err(FlareError::Codec(format!(
                "tcp frame length {len} too large"
            )));
        }
        let mut buf = vec![0u8; len];
        self.read_rest(&mut buf, deadline)?;
        Ok(buf)
    }
}

/// The NVFlare-equivalent "real deployment" transport over TCP.
#[derive(Debug)]
pub struct TcpTransport;

impl TcpTransport {
    /// Connects to a listening server, returning a split connection.
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] on connect/clone failure.
    pub fn connect(addr: &str) -> Result<Connection, FlareError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| FlareError::Transport(format!("connect {addr}: {e}")))?;
        Self::from_stream(stream)
    }

    /// Wraps an accepted stream into a split connection with the default
    /// [`TCP_WRITE_TIMEOUT`] so a dead peer cannot wedge a sender thread.
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] if the stream cannot be duplicated.
    pub fn from_stream(stream: TcpStream) -> Result<Connection, FlareError> {
        Self::from_stream_with_write_timeout(stream, TCP_WRITE_TIMEOUT)
    }

    /// [`TcpTransport::from_stream`] with an explicit write deadline
    /// (tests use short deadlines to prove sends cannot block forever).
    ///
    /// # Errors
    ///
    /// [`FlareError::Transport`] if the stream cannot be duplicated.
    pub fn from_stream_with_write_timeout(
        stream: TcpStream,
        write_timeout: Duration,
    ) -> Result<Connection, FlareError> {
        stream
            .set_nodelay(true)
            .map_err(|e| FlareError::Transport(format!("nodelay: {e}")))?;
        stream
            .set_write_timeout(Some(write_timeout))
            .map_err(|e| FlareError::Transport(format!("set write timeout: {e}")))?;
        let rx = stream
            .try_clone()
            .map_err(|e| FlareError::Transport(format!("clone stream: {e}")))?;
        Ok(Connection {
            tx: Box::new(TcpTx {
                stream,
                broken: false,
            }),
            rx: Box::new(TcpRx(rx)),
        })
    }

    /// Binds a listener on `addr` (use port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// [`FlareError::Io`] on bind failure.
    pub fn listen(addr: &str) -> Result<TcpListener, FlareError> {
        Ok(TcpListener::bind(addr)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn in_proc_roundtrip() {
        let (mut a, mut b) = in_proc_pair();
        a.tx.send(b"ping").unwrap();
        assert_eq!(b.rx.recv(Duration::from_millis(100)).unwrap(), b"ping");
        b.tx.send(b"pong").unwrap();
        assert_eq!(a.rx.recv(Duration::from_millis(100)).unwrap(), b"pong");
    }

    #[test]
    fn in_proc_timeout() {
        let (mut a, _b) = in_proc_pair();
        assert!(matches!(
            a.rx.recv(Duration::from_millis(20)),
            Err(FlareError::Timeout)
        ));
    }

    #[test]
    fn in_proc_disconnect_detected() {
        let (mut a, b) = in_proc_pair();
        drop(b);
        assert!(matches!(
            a.rx.recv(Duration::from_millis(20)),
            Err(FlareError::Transport(_))
        ));
        assert!(a.tx.send(b"x").is_err());
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpTransport::from_stream(stream).unwrap();
            let got = conn.rx.recv(Duration::from_secs(2)).unwrap();
            conn.tx.send(&got).unwrap(); // echo
        });
        let mut client = TcpTransport::connect(&addr).unwrap();
        let frame: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        client.tx.send(&frame).unwrap();
        assert_eq!(client.rx.recv(Duration::from_secs(2)).unwrap(), frame);
        server.join().unwrap();
    }

    #[test]
    fn tcp_timeout() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let _server = thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            thread::sleep(Duration::from_millis(200));
        });
        let mut client = TcpTransport::connect(&addr).unwrap();
        assert!(matches!(
            client.rx.recv(Duration::from_millis(30)),
            Err(FlareError::Timeout)
        ));
    }

    /// A frame whose body stalls past the receiver's timeout still
    /// arrives whole, and the stream stays in step for the next frame.
    /// The receiver loops on `Timeout` the way the server pump and the
    /// client's retry loop do.
    #[test]
    fn tcp_stalled_body_keeps_the_stream_in_step() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let first: Vec<u8> = (0..=255u8).cycle().take(4000).collect();
        let second = b"second frame".to_vec();
        let (f1, f2) = (first.clone(), second.clone());
        let peer = thread::spawn(move || {
            let mut raw = TcpStream::connect(&addr).unwrap();
            raw.set_nodelay(true).unwrap();
            raw.write_all(&(f1.len() as u32).to_le_bytes()).unwrap();
            raw.write_all(&f1[..1000]).unwrap();
            thread::sleep(Duration::from_millis(300));
            raw.write_all(&f1[1000..]).unwrap();
            raw.write_all(&(f2.len() as u32).to_le_bytes()).unwrap();
            raw.write_all(&f2).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = TcpTransport::from_stream(stream).unwrap();
        let mut got = Vec::new();
        for _ in 0..20 {
            match conn.rx.recv(Duration::from_millis(100)) {
                Ok(frame) => got.push(frame),
                Err(FlareError::Timeout) => continue,
                Err(e) => panic!("stream broke after a stalled body: {e}"),
            }
            if got.len() == 2 {
                break;
            }
        }
        peer.join().unwrap();
        assert_eq!(got, vec![first, second]);
    }

    #[test]
    fn tcp_write_times_out_instead_of_hanging() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accept but never read, so the kernel socket buffers fill up.
        let _server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let stream = TcpStream::connect(&addr).unwrap();
        let mut client =
            TcpTransport::from_stream_with_write_timeout(stream, Duration::from_millis(100))
                .unwrap();
        let frame = vec![0u8; 1 << 20];
        let mut saw_timeout = false;
        for _ in 0..64 {
            match client.tx.send(&frame) {
                Ok(()) => continue,
                Err(FlareError::Timeout) => {
                    saw_timeout = true;
                    break;
                }
                Err(e) => panic!("expected Timeout, got {e}"),
            }
        }
        assert!(saw_timeout, "64 MiB of sends never hit the write deadline");
    }

    #[test]
    fn tcp_send_cut_mid_frame_breaks_the_stream_instead_of_desyncing_it() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (failed_tx, failed_rx) = std::sync::mpsc::channel::<()>();
        // The peer reads nothing until the client's first failed send, then
        // drains every frame it can until the stream errors.
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpTransport::from_stream(stream).unwrap();
            failed_rx.recv().unwrap();
            let mut frames = Vec::new();
            loop {
                match conn.rx.recv(Duration::from_secs(5)) {
                    Ok(f) => frames.push(f),
                    Err(e) => return (frames, e),
                }
            }
        });
        let stream = TcpStream::connect(&addr).unwrap();
        let mut client =
            TcpTransport::from_stream_with_write_timeout(stream, Duration::from_millis(100))
                .unwrap();
        let small = |tag: u8| vec![tag; 1000];
        let mut whole = vec![small(1)];
        client.tx.send(&whole[0]).unwrap();
        // Larger than both socket buffers together, so it times out with
        // part of the frame written.
        let big: Vec<u8> = (0..32u32 << 20).map(|i| (i % 251) as u8).collect();
        assert!(matches!(client.tx.send(&big), Err(FlareError::Timeout)));
        failed_tx.send(()).unwrap();
        // A retry of the cut frame, then fresh frames, while the peer drains.
        for frame in [big.clone(), small(2), small(3)] {
            match client.tx.send(&frame) {
                Ok(()) => whole.push(frame),
                Err(e) => assert!(matches!(e, FlareError::Transport(_)), "got {e}"),
            }
        }
        drop(client);
        let (frames, end) = server.join().unwrap();
        for f in &frames {
            assert!(
                whole.contains(f),
                "the peer received a {}-byte frame that was never sent whole",
                f.len()
            );
        }
        assert!(
            matches!(end, FlareError::Transport(_)),
            "peer ended on {end}"
        );
    }

    #[test]
    fn tcp_empty_frame() {
        let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpTransport::from_stream(stream).unwrap();
            conn.rx.recv(Duration::from_secs(2)).unwrap()
        });
        let mut client = TcpTransport::connect(&addr).unwrap();
        client.tx.send(b"").unwrap();
        assert_eq!(server.join().unwrap(), Vec::<u8>::new());
    }
}
