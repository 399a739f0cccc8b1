//! The load generators' HTTP/1.1 client: one keep-alive connection, one
//! request in flight, `Content-Length` framing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply slower than this counts as failed (and so misses any latency
/// limit); it also bounds how long a wedged server can hold a run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

pub struct Client {
    addr: SocketAddr,
    conn: BufReader<TcpStream>,
    line: String,
    /// Body of the last reply.
    pub body: Vec<u8>,
}

fn dial(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let s = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(REPLY_TIMEOUT))?;
    s.set_write_timeout(Some(REPLY_TIMEOUT))?;
    Ok(BufReader::new(s))
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Ok(Client {
            addr,
            conn: dial(addr)?,
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// `GET path`; returns the status code with the body left in
    /// [`Client::body`]. After an I/O error the connection is replaced, so
    /// the next call starts clean.
    pub fn get(&mut self, path: &str) -> io::Result<u16> {
        let r = self.exchange(path);
        if r.is_err() {
            if let Ok(fresh) = dial(self.addr) {
                self.conn = fresh;
            }
        }
        r
    }

    fn exchange(&mut self, path: &str) -> io::Result<u16> {
        let closed =
            || io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection");
        write!(
            self.conn.get_mut(),
            "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
        )?;
        self.line.clear();
        if self.conn.read_line(&mut self.line)? == 0 {
            return Err(closed());
        }
        let status = self
            .line
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut len = 0usize;
        loop {
            self.line.clear();
            if self.conn.read_line(&mut self.line)? == 0 {
                return Err(closed());
            }
            let h = self.line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, v)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().unwrap_or(0);
                }
            }
        }
        self.body.resize(len, 0);
        self.conn.read_exact(&mut self.body)?;
        Ok(status)
    }
}
