//! The connection cap of the event loop, in a test binary of its own:
//! it asserts on the process-wide thread count, which the compute
//! fan-out of tests running alongside it in one process would inflate.

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

use distvliw_arch::MachineConfig;
use distvliw_serve::client::{self, Client};
use distvliw_serve::engine::ServeEngine;
use distvliw_serve::event::EventConfig;
use distvliw_serve::Server;

/// Spawns a server with explicit connection-layer sizing; returns its
/// base URL and the event-loop thread (joined after `/shutdown`).
fn spawn_server_with(config: EventConfig) -> (String, std::thread::JoinHandle<()>) {
    let engine = ServeEngine::new(MachineConfig::paper_baseline(), 256);
    let server = Server::bind_with("127.0.0.1:0", engine, config).expect("bind ephemeral port");
    let base = format!("http://{}", server.local_addr());
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (base, handle)
}

#[test]
fn connection_cap_answers_503_with_retry_after_and_bounded_threads() {
    let (base, handle) = spawn_server_with(EventConfig {
        workers: 2,
        max_conns: 4,
        queue_depth: 8,
    });

    // Fill the connection table with admitted keep-alive clients; a
    // completed request on each proves the server has accepted all
    // four (connect alone only reaches the backlog).
    let mut admitted: Vec<Client> = (0..4).map(|_| Client::connect(&base).unwrap()).collect();
    let reference = admitted[0].get("/table3").unwrap();
    assert_eq!(reference.status, 200);
    for conn in admitted.iter_mut().skip(1) {
        let resp = conn.get("/table3").unwrap();
        assert_eq!(resp.status, 200);
    }

    let threads_before = distvliw_obs::process_threads();

    // Every connection beyond the cap is answered an immediate 503
    // with retry-after and closed — without reading a request.
    let host = client::host_of(&base);
    for _ in 0..8 {
        let mut raw = TcpStream::connect(&host).unwrap();
        let mut bytes = Vec::new();
        raw.read_to_end(&mut bytes).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            text.starts_with("HTTP/1.1 503 "),
            "overflow connection must be answered 503, got: {text}"
        );
        assert!(text.contains("retry-after: 1"), "{text}");
        assert!(text.contains("connection: close"), "{text}");
    }

    // The admitted connections are untouched by the overflow and keep
    // serving byte-identical responses.
    for conn in &mut admitted {
        let resp = conn.get("/table3").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers, reference.headers);
        assert_eq!(resp.body, reference.body);
    }

    // No thread-per-connection: 8 overflow + 4 admitted connections
    // must not have grown the process thread budget (loop + workers
    // are fixed at startup; a small tolerance absorbs the flusher and
    // runtime threads).
    let threads_after = distvliw_obs::process_threads();
    assert!(
        threads_after <= threads_before + 4,
        "thread count grew with connections: {threads_before} -> {threads_after}"
    );

    // Free the table before /shutdown needs a fresh connection, and
    // give the loop a beat to observe the closes.
    drop(admitted);
    let mut ok = false;
    for _ in 0..100 {
        if let Ok(resp) = client::post(&base, "/shutdown", "") {
            if resp.status == 200 {
                ok = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(ok, "shutdown must be admitted once the table drains");
    handle.join().expect("server thread");
}
