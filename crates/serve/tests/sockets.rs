//! The shared line server over real loopback sockets: the framing edge
//! cases the in-memory `serve_lines` tests cannot reach.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use sgd_serve::checkpoint::Checkpoint;
use sgd_serve::model::{ServableModel, TaskDescriptor};
use sgd_serve::registry::ModelRegistry;
use sgd_serve::wire::{WireClient, WireConfig, WireResponse, WireServer};

fn registry_with_lr(weights: Vec<f64>) -> ModelRegistry {
    let reg = ModelRegistry::new();
    let dim = weights.len() as u64;
    let ck = Checkpoint::new(TaskDescriptor::LogisticRegression { dim }, weights).expect("dims");
    reg.publish("m", ServableModel::from_checkpoint(&ck).expect("valid"), 0, 0.5);
    reg
}

/// A raw client connection whose reads give up instead of hanging.
fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let reader = BufReader::new(conn.try_clone().expect("clone"));
    (conn, reader)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    line.trim_end().to_string()
}

#[test]
fn an_unterminated_last_line_is_answered_at_shutdown() {
    let reg = registry_with_lr(vec![1.0, 2.0]);
    let srv = WireServer::new(&reg, "m");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let serving = s.spawn(|| srv.serve_connections(&listener, 1));
        let (mut conn, mut reader) = connect(addr);
        conn.write_all(b"+1 1:1\n+1 2:2").expect("write");
        conn.shutdown(Shutdown::Write).expect("shutdown");
        assert_eq!(read_reply(&mut reader), "OK 1");
        assert_eq!(read_reply(&mut reader), "OK 4", "the unterminated line is a request");
        assert_eq!(serving.join().expect("no panic").expect("serve"), 2);
    });
}

#[test]
fn a_client_reset_mid_line_ends_only_its_connection() {
    let reg = registry_with_lr(vec![3.0]);
    // One worker: the connection after the reset is served by the same
    // thread, so a reset that took the worker down would hang it.
    let cfg = WireConfig { workers: 1, ..WireConfig::default() };
    let srv = WireServer::with_config(&reg, "m", cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let serving = s.spawn(|| srv.serve_connections(&listener, 2));

        let (mut doomed, doomed_reader) = connect(addr);
        doomed.write_all(b"+1 1:1\n").expect("write");
        // Wait, without consuming it, until the reply is queued on the
        // client: closing a socket with unread data sends RST, not FIN.
        doomed.peek(&mut [0u8; 1]).expect("reply queued");
        doomed.write_all(b"+1 1:").expect("write half a line");
        drop(doomed);
        drop(doomed_reader);

        let (mut conn, mut reader) = connect(addr);
        conn.write_all(b"+1 1:2\n").expect("write");
        assert_eq!(read_reply(&mut reader), "OK 6", "the next connection is served");
        drop((conn, reader));

        let outcome = serving.join().expect("no panic");
        let err = outcome.expect_err("the reset is reported");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
    });
}

#[test]
fn accepted_streams_set_nodelay() {
    let reg = registry_with_lr(vec![1.0]);
    let srv = WireServer::new(&reg, "m");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let serving = s.spawn(|| {
            let (stream, _) = listener.accept().expect("accept");
            // A clone shares the socket, so it sees the options `handle`
            // installs.
            let probe = stream.try_clone().expect("clone");
            srv.handle(stream).expect("serve");
            probe.nodelay().expect("nodelay")
        });
        let mut client = WireClient::connect(addr).expect("connect");
        assert_eq!(client.score("+1 1:5").expect("score"), WireResponse::Ok(5.0));
        drop(client);
        assert!(serving.join().expect("no panic"), "TCP_NODELAY set on accept");
    });
}

#[test]
fn server_eof_is_an_error_and_is_not_retried() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        // A server that accepts, closes its sending half, and counts the
        // request lines that reach it.
        let server = s.spawn(|| {
            let (stream, _) = listener.accept().expect("accept");
            stream.shutdown(Shutdown::Write).expect("shutdown");
            BufReader::new(stream).lines().count()
        });
        let mut client = WireClient::connect(addr).expect("connect");
        let err = client.score("+1 1:1").expect_err("no reply is not a reply");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let err = client.score_with_retry("+1 1:1").expect_err("EOF is not retryable");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        drop(client);
        assert_eq!(server.join().expect("no panic"), 2, "one send per call, no retries");
    });
}
