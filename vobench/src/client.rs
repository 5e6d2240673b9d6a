//! A raw line client: the benchmark needs the exact response bytes
//! (for byte comparison) and client-observed latency, so it speaks the
//! newline-delimited protocol itself instead of going through
//! `ServiceClient`, which decodes every line.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use gridvo_service::protocol::{decode, Response};

/// One connection to the daemon.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    /// Connect with Nagle off, as the daemon's own client does.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(LineClient { reader: BufReader::new(stream), writer })
    }

    /// Send one request line and return its single response line
    /// (without the newline).
    pub fn call(&mut self, request: &str) -> std::io::Result<String> {
        self.send(request)?;
        self.read_line()
    }

    /// Send one request whose answer is a stream (`form_batch`) and
    /// return every line up to and including the terminal one.
    pub fn call_stream(&mut self, request: &str) -> std::io::Result<Vec<String>> {
        self.send(request)?;
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            let terminal = matches!(
                decode::<Response>(&line),
                Ok(Response::BatchEnd { .. } | Response::Busy | Response::DeadlineExceeded)
                    | Err(_)
            );
            lines.push(line);
            if terminal {
                return Ok(lines);
            }
        }
    }

    fn send(&mut self, request: &str) -> std::io::Result<()> {
        let mut wire = String::with_capacity(request.len() + 1);
        wire.push_str(request);
        wire.push('\n');
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(line)
    }
}
