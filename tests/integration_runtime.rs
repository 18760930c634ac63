//! Cross-crate integration: the federated runtime over real TCP sockets,
//! token rejection, and in-proc/TCP parity.

use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::client::{ClientBehavior, FlClient};
use clinfl_flare::controller::{SagConfig, ScatterAndGather};
use clinfl_flare::executor::ArithmeticExecutor;
use clinfl_flare::persistor::InMemoryPersistor;
use clinfl_flare::provision::{Project, SitePackage};
use clinfl_flare::server::FlServer;
use clinfl_flare::transport::TcpTransport;
use clinfl_flare::{EventLog, FlareError, WeightTensor, Weights};
use std::time::Duration;

fn initial() -> Weights {
    let mut w = Weights::new();
    w.insert("w".into(), WeightTensor::new(vec![2], vec![0.0, 0.0]));
    w
}

fn run_tcp_federation(n_clients: usize, rounds: u32) -> Weights {
    let provisioned = Project::with_n_sites("tcp_test", n_clients, 5).provision();
    let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let log = EventLog::new();
    let mut server = FlServer::new(provisioned.server.clone(), log.clone(), 5);

    let mut threads = Vec::new();
    for (i, package) in provisioned.sites.iter().cloned().enumerate() {
        let addr = addr.clone();
        let clog = log.clone();
        threads.push(std::thread::spawn(move || {
            let conn = TcpTransport::connect(&addr).unwrap();
            let mut client = FlClient::register(conn, &package, 1000 + i as u64, clog).unwrap();
            let mut ex = ArithmeticExecutor {
                delta: 1.0,
                n_examples: 10,
            };
            client.run(&mut ex, ClientBehavior::default()).unwrap()
        }));
    }
    for _ in 0..n_clients {
        let (stream, _) = listener.accept().unwrap();
        server.serve_connection(TcpTransport::from_stream(stream).unwrap());
    }
    assert_eq!(
        server.wait_for_clients(n_clients, Duration::from_secs(10)),
        n_clients
    );

    let sag = ScatterAndGather::new(
        SagConfig {
            rounds,
            min_clients: n_clients,
            round_timeout: Duration::from_secs(30),
            validate_global: false,
            ..SagConfig::default()
        },
        log,
    );
    let result = sag
        .run(
            &mut server,
            &WeightedFedAvg,
            &mut InMemoryPersistor::new(),
            initial(),
        )
        .unwrap();
    for t in threads {
        t.join().unwrap();
    }
    server.shutdown();
    result.final_weights
}

#[test]
fn tcp_federation_matches_expected_math() {
    let w = run_tcp_federation(3, 4);
    // Every client adds 1.0 per round → +1 per aggregated round.
    assert_eq!(w["w"].data, vec![4.0, 4.0]);
}

#[test]
fn invalid_token_is_rejected_over_tcp() {
    let provisioned = Project::with_n_sites("tcp_reject", 1, 6).provision();
    let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let log = EventLog::new();
    let mut server = FlServer::new(provisioned.server.clone(), log.clone(), 6);

    let clog = log.clone();
    let forged = SitePackage {
        token: "forged-token".into(),
        ..provisioned.sites[0].clone()
    };
    let handle = std::thread::spawn(move || {
        let conn = TcpTransport::connect(&addr).unwrap();
        FlClient::register(conn, &forged, 1, clog)
    });
    let (stream, _) = listener.accept().unwrap();
    server.serve_connection(TcpTransport::from_stream(stream).unwrap());

    let result = handle.join().unwrap();
    assert!(matches!(result, Err(FlareError::InvalidToken { .. })));
    assert_eq!(server.wait_for_clients(1, Duration::from_millis(300)), 0);
    server.shutdown();
}

#[test]
fn duplicate_site_registration_rejected() {
    let provisioned = Project::with_n_sites("dup_test", 1, 8).provision();
    let listener = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let log = EventLog::new();
    let mut server = FlServer::new(provisioned.server.clone(), log.clone(), 8);

    let package = provisioned.sites[0].clone();
    // First registration succeeds.
    let p1 = package.clone();
    let a1 = addr.clone();
    let l1 = log.clone();
    let t1 = std::thread::spawn(move || {
        let conn = TcpTransport::connect(&a1).unwrap();
        FlClient::register(conn, &p1, 1, l1)
    });
    let (stream, _) = listener.accept().unwrap();
    server.serve_connection(TcpTransport::from_stream(stream).unwrap());
    // Keep the first client alive so its session stays registered.
    let _first_client = t1.join().unwrap().unwrap();
    server.wait_for_clients(1, Duration::from_secs(5));

    // Second registration with the same live site name is refused.
    let t2 = std::thread::spawn(move || {
        let conn = TcpTransport::connect(&addr).unwrap();
        FlClient::register(conn, &package, 2, log)
    });
    let (stream, _) = listener.accept().unwrap();
    server.serve_connection(TcpTransport::from_stream(stream).unwrap());
    assert!(matches!(
        t2.join().unwrap(),
        Err(FlareError::InvalidToken { .. })
    ));
    server.shutdown();
}
