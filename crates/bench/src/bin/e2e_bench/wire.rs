//! The line-protocol client: one blocking connection, one request in
//! flight — a closed loop, so a slow server receives less load.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A reply slower than this fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            reply: String::new(),
        })
    }

    /// Sends `request` (which must end in `\n`) and returns the reply
    /// line without its newline.
    pub fn ask(&mut self, request: &str) -> Result<&str, String> {
        debug_assert!(request.ends_with('\n'));
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("reply: {e}")),
        }
    }

    /// [`Conn::ask`], timed from before the send to after the reply line.
    pub fn ask_timed(&mut self, request: &str) -> Result<(Duration, &str), String> {
        let start = Instant::now();
        // Two-phase so the reply borrow does not outlive the clock read.
        self.ask(request)?;
        let took = start.elapsed();
        Ok((took, self.reply.trim_end()))
    }
}

/// The value of a `key=` field of a reply line.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// A numeric `key=` field of a reply line.
pub fn field_u64(reply: &str, key: &str) -> Result<u64, String> {
    field(reply, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("reply has no numeric `{key}=`: {reply}"))
}

/// The six `STATS` counters, for before/after deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub fsyncs: u64,
    pub units: u64,
    pub records: u64,
    pub groups: u64,
    pub acked: u64,
    pub failed: u64,
}

impl ServerStats {
    pub fn fetch(conn: &mut Conn) -> Result<ServerStats, String> {
        let reply = conn.ask("STATS\n")?;
        Ok(ServerStats {
            fsyncs: field_u64(reply, "fsyncs")?,
            units: field_u64(reply, "units")?,
            records: field_u64(reply, "records")?,
            groups: field_u64(reply, "groups")?,
            acked: field_u64(reply, "acked")?,
            failed: field_u64(reply, "failed")?,
        })
    }

    pub fn since(&self, before: &ServerStats) -> ServerStats {
        ServerStats {
            fsyncs: self.fsyncs - before.fsyncs,
            units: self.units - before.units,
            records: self.records - before.records,
            groups: self.groups - before.groups,
            acked: self.acked - before.acked,
            failed: self.failed - before.failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_parse() {
        let ack = "OK lsn=17 epoch=4 group=2";
        assert_eq!(field(ack, "lsn"), Some("17"));
        assert_eq!(field_u64(ack, "epoch"), Ok(4));
        assert!(field_u64(ack, "users").is_err());
        assert_eq!(field("OK v1 epoch=2 lsn=9", "lsn"), Some("9"));
    }
}
