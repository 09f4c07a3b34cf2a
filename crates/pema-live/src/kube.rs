//! Kubernetes CPU-limit actuation: strategic-merge PATCHes against the
//! deployments API, with bearer-token auth from a kubeconfig-lite
//! struct.
//!
//! The paper's actuator is `kubectl set resources` — a PATCH of
//! `spec.template.spec.containers[].resources.limits.cpu`. We speak
//! that wire format directly. CPU quantities are serialized as plain
//! decimal cores with Rust's shortest-round-trip formatting, so a value
//! read back from the recorded tape compares bit-equal to the one the
//! policy decided; a real API server additionally rounds to millicore
//! granularity (1m), which is below the controller's step sizes.

use crate::http::{Endpoint, HttpClient, HttpError};
use pema_telemetry::json::Reader;

/// The subset of a kubeconfig the live actuator needs. No YAML
/// parsing, no client certificates: host, bearer token, namespace.
#[derive(Debug, Clone)]
pub struct KubeConfigLite {
    /// API server endpoint (`http://host:port`).
    pub server: Endpoint,
    /// Bearer token sent as `Authorization: Bearer …`; `None` for
    /// unauthenticated local proxies (`kubectl proxy`).
    pub token: Option<String>,
    /// Namespace holding the application's deployments.
    pub namespace: String,
}

/// Errors from one actuation attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum KubeError {
    /// Transport failure.
    Http(HttpError),
    /// The API server rejected the PATCH.
    Status {
        /// HTTP status code.
        code: u16,
        /// Response body (the API server's Status message).
        body: String,
    },
    /// A 2xx answer that is not the patched Deployment, so nothing
    /// shows the PATCH was applied.
    Malformed(String),
}

impl std::fmt::Display for KubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KubeError::Http(e) => write!(f, "{e}"),
            KubeError::Status { code, body } => {
                write!(f, "kubernetes API returned HTTP {code}: {body}")
            }
            KubeError::Malformed(e) => write!(f, "unparseable kubernetes API answer: {e}"),
        }
    }
}

/// Client for the deployments PATCH path.
#[derive(Debug, Clone)]
pub struct KubeClient {
    /// Connection parameters.
    pub config: KubeConfigLite,
    /// Transport with connect/read timeouts.
    pub http: HttpClient,
}

impl KubeClient {
    /// The PATCH path for `deployment` in the configured namespace.
    fn patch_path(&self, deployment: &str) -> String {
        format!(
            "/apis/apps/v1/namespaces/{}/deployments/{deployment}",
            self.config.namespace
        )
    }

    /// The strategic-merge-patch body setting `container`'s CPU limit.
    fn cpu_limit_body(container: &str, cores: f64) -> String {
        format!(
            concat!(
                r#"{{"spec":{{"template":{{"spec":{{"containers":"#,
                r#"[{{"name":{},"resources":{{"limits":{{"cpu":"{}"}}}}}}]}}}}}}}}"#
            ),
            pema_telemetry::json::quote(container),
            cores
        )
    }

    /// PATCHes one deployment's CPU limit. The deployment and its
    /// single app container are assumed to share the service name
    /// (the repo's manifests generate them that way). Success is a 2xx
    /// whose body is the patched object, a JSON object with
    /// `"kind":"Deployment"`: a status code alone does not show that
    /// the limit is in force.
    pub fn patch_cpu_limit(&self, service: &str, cores: f64) -> Result<(), KubeError> {
        let mut headers = Vec::new();
        if let Some(token) = &self.config.token {
            headers.push(("Authorization".to_string(), format!("Bearer {token}")));
        }
        let resp = self
            .http
            .request(
                &self.config.server,
                "PATCH",
                &self.patch_path(service),
                &headers,
                Some(&Self::cpu_limit_body(service, cores)),
            )
            .map_err(KubeError::Http)?;
        if resp.is_success() {
            check_deployment(&resp.body).map_err(KubeError::Malformed)
        } else {
            Err(KubeError::Status {
                code: resp.status,
                body: resp.body,
            })
        }
    }
}

/// `Ok` when `body` is a JSON object whose first `kind` is
/// `"Deployment"`. The API server answers with the whole object, so
/// the rest is skipped (syntax-checked) unread.
fn check_deployment(body: &str) -> Result<(), String> {
    let mut r = Reader::new(body);
    let mut kind = None;
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "kind" if kind.is_none() => kind = Some(r.string()?),
            _ => r.skip_value()?,
        }
    }
    r.end()?;
    match kind.as_deref() {
        Some("Deployment") => Ok(()),
        Some(other) => Err(format!("kind \"{other}\", not Deployment")),
        None => Err("missing required key \"kind\"".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pema_telemetry::json::Value;

    fn client() -> KubeClient {
        KubeClient {
            config: KubeConfigLite {
                server: Endpoint::parse("http://127.0.0.1:6443").unwrap(),
                token: Some("secret".into()),
                namespace: "pema".into(),
            },
            http: HttpClient::default(),
        }
    }

    #[test]
    fn patch_path_targets_the_namespaced_deployment() {
        assert_eq!(
            client().patch_path("frontend"),
            "/apis/apps/v1/namespaces/pema/deployments/frontend"
        );
    }

    #[test]
    fn cpu_limit_body_round_trips_cores_exactly() {
        let body = KubeClient::cpu_limit_body("fe", 1.35);
        let root = pema_telemetry::json::parse(&body).unwrap();
        // Walk spec.template.spec.containers[0].resources.limits.cpu.
        fn at<'a>(v: &'a Value, keys: &[&str]) -> &'a Value {
            keys.iter().fold(v, |v, key| v.get(key).expect(key))
        }
        let containers = at(&root, &["spec", "template", "spec", "containers"]);
        let c0 = &containers.as_array().unwrap()[0];
        assert_eq!(at(c0, &["name"]).as_str(), Some("fe"));
        let cpu = at(c0, &["resources", "limits", "cpu"]);
        let parsed: f64 = cpu.as_str().unwrap().parse().unwrap();
        assert_eq!(parsed.to_bits(), 1.35f64.to_bits());
    }

    #[test]
    fn only_the_patched_deployment_is_a_successful_answer() {
        for ok in [
            r#"{"kind":"Deployment"}"#,
            r#"{"apiVersion":"apps/v1","metadata":{"name":"fe","labels":{"kind":"x"}},"kind":"Deployment","spec":{}}"#,
        ] {
            assert_eq!(check_deployment(ok), Ok(()), "{ok}");
        }
        for bad in [
            "}{ this is not json",
            "",
            r#"["kind","Deployment"]"#,
            r#"{"kind":"Status","status":"Failure"}"#,
            r#"{"metadata":{"kind":"Deployment"}}"#,
            r#"{"kind":"Deployment"} trailing"#,
            r#"{"kind":7}"#,
        ] {
            assert!(check_deployment(bad).is_err(), "{bad}");
        }
    }
}
