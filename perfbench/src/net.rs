//! Load-generation clients for popmond's line protocol.
//!
//! [`open_loop`] sends a planned schedule over several connections from one
//! thread: each request goes out when it is due whether or not earlier
//! replies have come back, so a stalled server builds a queue instead of
//! slowing the sender. The thread sleeps in `ppoll(2)` until the next
//! request is due or a reply arrives, so waiting costs no CPU and replies
//! are timestamped when the kernel hands them over. [`Closed`] is a
//! one-request-at-a-time client for closed-loop sessions.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

use crate::trace::{self, now_ns};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout_ns` passes.
fn wait(fds: &mut [PollFd], timeout_ns: u64) {
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as c_long,
        tv_nsec: (timeout_ns % 1_000_000_000) as c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and `nfds` is its length; `ts` outlives the call; a
    // null signal mask is allowed and leaves the mask unchanged. ppoll only
    // writes the `revents` fields inside the slice.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Connection index it is sent on.
    pub conn: usize,
    /// When it is due, ns after the schedule starts.
    pub due: u64,
    /// The request line, newline excluded.
    pub line: String,
}

/// What happened to one planned request (times in [`now_ns`] units).
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// When it was due.
    pub due: u64,
    /// When it was written to the socket.
    pub sent: u64,
    /// When its reply was read.
    pub recv: u64,
    /// The reply line, newline excluded.
    pub reply: String,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Bytes not yet written start at `out_pos`; the written prefix is
    /// dropped only once it is large, so a backlog costs no repeated copies.
    outbuf: Vec<u8>,
    out_pos: usize,
    in_flight: VecDeque<usize>,
}

/// Opens `n` connections to `addr`.
pub fn connect(addr: SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect()
}

/// Sends `plan` (sorted by `due`) over `streams` on schedule and collects
/// every reply. Returns one [`Observed`] per planned request, in plan order.
/// When tracing is on, each request is recorded as a `popmond.request`
/// span from its due time to its reply, with request id `base + index`.
pub fn open_loop(
    streams: &[TcpStream],
    plan: &[Planned],
    base: u64,
) -> Result<Vec<Observed>, String> {
    let mut conns: Vec<Conn> = streams
        .iter()
        .map(|s| {
            let stream = s.try_clone().map_err(|e| e.to_string())?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                stream,
                inbuf: Vec::with_capacity(1 << 16),
                outbuf: Vec::new(),
                out_pos: 0,
                in_flight: VecDeque::new(),
            })
        })
        .collect::<Result<_, String>>()?;
    let start = now_ns();
    let mut out: Vec<Observed> = plan
        .iter()
        .map(|p| Observed {
            due: start + p.due,
            ..Observed::default()
        })
        .collect();
    let mut next = 0usize;
    let mut done = 0usize;
    let mut chunk = vec![0u8; 1 << 16];
    while done < plan.len() {
        let now = now_ns();
        while next < plan.len() && out[next].due <= now {
            let c = &mut conns[plan[next].conn];
            c.outbuf.extend_from_slice(plan[next].line.as_bytes());
            c.outbuf.push(b'\n');
            c.in_flight.push_back(next);
            out[next].sent = now;
            next += 1;
        }
        for c in conns.iter_mut() {
            while c.out_pos < c.outbuf.len() {
                match c.stream.write(&c.outbuf[c.out_pos..]) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => c.out_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            if c.out_pos == c.outbuf.len() {
                c.outbuf.clear();
                c.out_pos = 0;
            } else if c.out_pos > 1 << 20 {
                c.outbuf.drain(..c.out_pos);
                c.out_pos = 0;
            }
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        let t = now_ns();
                        c.inbuf.extend_from_slice(&chunk[..n]);
                        let mut from = 0;
                        while let Some(nl) = c.inbuf[from..].iter().position(|&b| b == b'\n') {
                            let i = c
                                .in_flight
                                .pop_front()
                                .ok_or("reply without a request in flight")?;
                            out[i].recv = t;
                            trace::record("popmond.request", out[i].due, t, base + i as u64);
                            out[i].reply =
                                String::from_utf8_lossy(&c.inbuf[from..from + nl]).into_owned();
                            from += nl + 1;
                            done += 1;
                        }
                        c.inbuf.drain(..from);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
        }
        if done == plan.len() {
            break;
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.outbuf.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                },
                revents: 0,
            })
            .collect();
        let timeout = if next < plan.len() {
            out[next].due.saturating_sub(now_ns())
        } else {
            100_000_000
        };
        if timeout > 0 {
            wait(&mut fds, timeout);
        }
    }
    for c in &conns {
        c.stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// A blocking one-request-at-a-time client.
pub struct Closed {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Closed {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = connect(addr, 1)?.remove(0);
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Closed {
            writer: stream,
            reader,
        })
    }

    /// Sends one line and waits for its reply (newline stripped).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}
