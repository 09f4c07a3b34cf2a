//! `GET /metrics` as a handler on the shared [`http::Server`](Server).
//! Prometheus keeps its scrape connection alive between scrapes, and
//! each open connection has its own server thread, so a scraper that
//! holds one cannot lock out another reader such as `pema-cli metrics`.
//!
//! Scrapes render the registry at request time on the connection's
//! server thread, one at a time, so instrumented components never block
//! on a scrape in progress.

use crate::http::{Reply, Server};
use crate::registry::Telemetry;
use std::net::SocketAddr;

/// Handle to a running `/metrics` listener. Clones share the server;
/// it stops when the last handle drops.
#[derive(Clone)]
pub struct MetricsServer {
    server: Server,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for an
    /// ephemeral test port) and starts serving scrapes of `telemetry`.
    pub fn serve(addr: &str, telemetry: Telemetry) -> std::io::Result<MetricsServer> {
        let server = Server::serve(addr, "pema-metrics", move |req| {
            Some(match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/metrics") => Reply {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: telemetry.render(),
                },
                (method, path) => Reply::text(404, format!("no route for {method} {path}\n")),
            })
        })?;
        Ok(MetricsServer { server })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Endpoint, HttpClient};
    use crate::lint::lint;

    #[test]
    fn serves_a_lintable_scrape_and_404s_elsewhere() {
        let t = Telemetry::new();
        let c = t.counter("pema_test_total", "test counter", &[("m", "x")]);
        c.add(2.0);
        let srv = MetricsServer::serve("127.0.0.1:0", t.clone()).unwrap();
        let endpoint = Endpoint {
            host: "127.0.0.1".into(),
            port: srv.local_addr().port(),
        };
        let get = |path: &str| {
            HttpClient::default()
                .request(&endpoint, "GET", path, &[], None)
                .expect("scrape")
        };
        let first = get("/metrics");
        assert_eq!(first.status, 200);
        assert!(
            first.body.contains("pema_test_total{m=\"x\"} 2"),
            "{}",
            first.body
        );
        c.inc();
        let second = get("/metrics");
        let r = lint(&second.body, Some(&first.body));
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(get("/other").status, 404);
    }

    #[test]
    fn two_keep_alive_scrapers_and_an_idle_connection_are_served_together() {
        let t = Telemetry::new();
        t.counter("pema_test_total", "test counter", &[]).inc();
        let srv = MetricsServer::serve("127.0.0.1:0", t).unwrap();
        // A connection that never sends a request: it must not hold up
        // anyone else.
        let _idle = std::net::TcpStream::connect(srv.local_addr()).unwrap();
        let endpoint = Endpoint {
            host: "127.0.0.1".into(),
            port: srv.local_addr().port(),
        };
        // Each scraper keeps its connection open across rounds, and the
        // barrier holds both open at once.
        let rounds = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..3 {
                        let scrape = HttpClient::default()
                            .request(&endpoint, "GET", "/metrics", &[], None)
                            .expect("scrape");
                        assert!(scrape.body.contains("pema_test_total 1"));
                        rounds.wait();
                    }
                });
            }
        });
        assert_eq!(srv.server.connections(), 3);
    }
}
