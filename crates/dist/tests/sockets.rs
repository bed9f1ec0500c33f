//! The parameter-server protocol over real loopback sockets: the framing
//! edge cases the in-memory `serve_lines` tests cannot reach.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sgd_dist::{
    ConsistencyMode, DistWireClient, DistWireServer, ParamServer, Reply, Request, Transport,
};
use sgd_serve::framing::lock_tolerant;

fn param_server() -> Arc<Mutex<ParamServer>> {
    Arc::new(Mutex::new(ParamServer::new(
        vec![0.0; 2],
        0.1,
        ConsistencyMode::Sync { grads_to_wait: 1 },
        1,
    )))
}

#[test]
fn an_unterminated_last_line_is_answered_at_shutdown() {
    let server = param_server();
    let front = DistWireServer::new(Arc::clone(&server));
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let serving = s.spawn(|| front.serve_connections(&listener, 1));
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let reader = BufReader::new(conn.try_clone().expect("clone"));
        conn.write_all(b"JOIN 3\nLEAVE 3").expect("write");
        conn.shutdown(Shutdown::Write).expect("shutdown");
        let replies: Vec<String> = reader.lines().map(|l| l.expect("reply")).collect();
        assert_eq!(replies.len(), 2);
        assert!(replies[0].starts_with("MODEL 0 "), "JOIN pulls the model: {}", replies[0]);
        assert_eq!(replies[1], "LEFT", "the unterminated line is a request");
        assert_eq!(serving.join().expect("no panic").expect("serve"), 2);
    });
    assert_eq!(lock_tolerant(&server).stats().leaves, 1, "a clean leave, not a death");
}

#[test]
fn accepted_streams_set_nodelay() {
    let front = DistWireServer::new(param_server());
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let serving = s.spawn(|| {
            let (stream, _) = listener.accept().expect("accept");
            // A clone shares the socket, so it sees the options `handle`
            // installs.
            let probe = stream.try_clone().expect("clone");
            front.handle(stream).expect("serve");
            probe.nodelay().expect("nodelay")
        });
        let mut client = DistWireClient::connect(addr).expect("connect");
        assert_eq!(client.call(Request::Leave { worker: 0 }).expect("call"), Reply::Left);
        drop(client);
        assert!(serving.join().expect("no panic"), "TCP_NODELAY set on accept");
    });
}
