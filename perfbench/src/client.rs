//! A minimal HTTP/1.1 keep-alive client over one TCP connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body bytes.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive connection that reconnects after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Conn {
        Conn {
            addr,
            timeout,
            stream: None,
        }
    }

    /// The raw bytes of a request, as they go on the wire.
    pub fn encode(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
        let mut raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    /// Sends one request and reads its `Content-Length`-framed reply.
    /// Any I/O error drops the connection; the next call reconnects.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let result = self.try_send(raw);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn try_send(&mut self, raw: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        reader.get_mut().write_all(raw)?;

        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
        let mut content_length = None;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let len = content_length.ok_or_else(|| bad("reply has no Content-Length".into()))?;
        let mut body = vec![0; len];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
