//! Wire-frame robustness: adversarial byte sequences against a live
//! [`CheckServer`]. Every frame must draw an `OK`/`ERR` reply or a clean
//! disconnect — never a crash or a hang — and after each frame the server
//! must still answer `PING` and reproduce a byte-identical reply to a
//! known-good `CHECK`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ufilter_core::bookdemo;
use ufilter_fuzz::gen_wire::{self, Expect};
use ufilter_fuzz::FuzzRng;
use ufilter_service::proto::{catalog_add_request, check_request};
use ufilter_service::{CheckServer, ShardedCatalog};
use ufilter_xml::MAX_NESTING;

const FRAMES: usize = 250;
const SEED: u64 = 0x817E_F8A3;

/// One request → one reply line over a fresh connection.
fn roundtrip(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("server accepts");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    writeln!(stream, "{request}").expect("request written");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("server replies");
    reply.trim_end().to_string()
}

fn known_check(addr: SocketAddr) -> String {
    roundtrip(addr, &check_request("books", bookdemo::U8))
}

#[test]
fn adversarial_frames_never_kill_the_server() {
    let db = bookdemo::book_db();
    let sharded = ShardedCatalog::new(bookdemo::book_schema(), 2);
    sharded.add("books", bookdemo::BOOK_VIEW).expect("demo view compiles");
    let server =
        CheckServer::bind("127.0.0.1:0", Arc::new(sharded), db, 2).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let reference = known_check(addr);
    assert!(reference.starts_with("OK "), "reference check failed: {reference}");

    let mut rng = FuzzRng::new(SEED);
    for i in 0..FRAMES {
        let frame = gen_wire::generate(&mut rng);
        let mut stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("frame {i} ({}): connect: {e}", frame.label));
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // The server may close mid-write on frames it refuses outright;
        // a write error is a legal outcome, a hang is not.
        let written = stream.write_all(&frame.bytes).and_then(|()| stream.flush());
        match frame.expect {
            Expect::Reply => {
                written.unwrap_or_else(|e| panic!("frame {i} ({}): write: {e}", frame.label));
                let mut reader = BufReader::new(stream);
                let mut reply = String::new();
                reader
                    .read_line(&mut reply)
                    .unwrap_or_else(|e| panic!("frame {i} ({}): no reply: {e}", frame.label));
                let reply = reply.trim_end();
                assert!(
                    reply.starts_with("OK") || reply.starts_with("ERR"),
                    "frame {i} ({}): unexpected reply {reply:?}",
                    frame.label
                );
            }
            Expect::MayDisconnect => {
                // Closing without a newline-terminated request: the server
                // discards the partial line; nothing to read.
                drop(stream);
            }
        }
        // Liveness after every frame: PING answers, and the known CHECK is
        // byte-identical to the pre-fuzz reference.
        let pong = roundtrip(addr, "PING");
        assert_eq!(pong, "OK pong", "frame {i} ({}): PING broke", frame.label);
        let check = known_check(addr);
        assert_eq!(check, reference, "frame {i} ({}): CHECK reply drifted", frame.label);
    }

    handle.shutdown();
    thread.join().expect("server thread joins").expect("clean shutdown");
}

/// A book view nested `levels` deep below its root tag: one FLWR, then
/// `levels - 1` constant elements around the projections.
fn nested_view(levels: usize) -> String {
    let open: String = (1..levels).map(|d| format!("<e{d}>")).collect();
    let close: String = (1..levels).rev().map(|d| format!("</e{d}>")).collect();
    format!(
        "<Deep>FOR $b IN document(\"default.xml\")/book/row RETURN {{{open}\
         $b/bookid, $b/title{close}}}</Deep>"
    )
}

/// Inputs nested past the parsers' limit used to overflow a connection
/// thread's stack and abort the whole server. Now they draw typed replies
/// naming the limit, input at the limit still compiles, and the server
/// keeps serving.
#[test]
fn over_deep_inputs_get_typed_replies_and_the_server_survives() {
    let db = bookdemo::book_db();
    let sharded = ShardedCatalog::new(bookdemo::book_schema(), 2);
    sharded.add("books", bookdemo::BOOK_VIEW).expect("demo view compiles");
    let server =
        CheckServer::bind("127.0.0.1:0", Arc::new(sharded), db, 2).expect("ephemeral bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    let reference = known_check(addr);

    // A view nested 4000 deep: the compile error is the request's ERR.
    let reply = roundtrip(addr, &catalog_add_request("deep4000", &nested_view(4000)));
    assert!(reply.starts_with("ERR ") && reply.contains("512%20levels"), "{reply}");

    // An INSERT fragment nested 4000 deep: a malformed update, which the
    // CHECK verb reports as an outcome (as on every check surface).
    let fragment = format!("{}<bookid>1</bookid>{}", "<a>".repeat(4000), "</a>".repeat(4000));
    let update = format!("FOR $r IN document(\"BookView.xml\")\nUPDATE $r {{ INSERT {fragment} }}");
    let reply = roundtrip(addr, &check_request("books", &update));
    assert!(reply.starts_with("OK invalid malformed") && reply.contains("512%20levels"), "{reply}");

    // Exactly at the limit the view compiles (the deepest benchmark view is
    // 301 levels).
    let reply = roundtrip(addr, &catalog_add_request("deep512", &nested_view(MAX_NESTING)));
    assert!(reply.starts_with("OK added deep512"), "{reply}");

    assert_eq!(roundtrip(addr, "PING"), "OK pong");
    assert_eq!(known_check(addr), reference);
    handle.shutdown();
    thread.join().expect("server thread joins").expect("clean shutdown");
}
