//! Provisioning: turning a project description into server and site
//! startup packages (the paper's "NVFlare provision" stage, Fig. 1).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Declarative description of a federated project.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Project {
    /// Project name (NVFlare's `simulator_server` in the paper's Fig. 3).
    pub name: String,
    /// Site names, e.g. `site-1 … site-8`.
    pub sites: Vec<String>,
    /// Seed for token/key generation — provisioning is deterministic so
    /// tests and paired deployments can reproduce it.
    pub seed: u64,
}

impl Project {
    /// A project with `n` sites named `site-1 … site-n` (the paper uses
    /// eight).
    pub fn with_n_sites(name: impl Into<String>, n: usize, seed: u64) -> Self {
        Project {
            name: name.into(),
            sites: (1..=n).map(|i| format!("site-{i}")).collect(),
            seed,
        }
    }

    /// Expands the project into startup packages.
    ///
    /// # Panics
    ///
    /// Panics if the project has no sites or duplicate site names.
    pub fn provision(&self) -> Provisioned {
        assert!(!self.sites.is_empty(), "project needs at least one site");
        let mut names = self.sites.clone();
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            self.sites.len(),
            "duplicate site names in project"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sites = self
            .sites
            .iter()
            .enumerate()
            .map(|(position, s)| SitePackage {
                site_name: s.clone(),
                token: generate_token(&mut rng),
                position,
                roster_size: self.sites.len(),
            })
            .collect::<Vec<_>>();
        let server = ServerConfig {
            project: self.name.clone(),
            expected_tokens: sites
                .iter()
                .map(|p| (p.site_name.clone(), p.token.clone()))
                .collect(),
        };
        Provisioned { server, sites }
    }
}

/// Set in the `index` of an interior aggregator node passed to
/// [`dh_secret`], so relay secrets never collide with a site's.
pub const RELAY_INDEX: u64 = 1 << 63;

/// The client-side Diffie–Hellman secret of one member of a simulated
/// federation run under `seed`. Leaf site `site-k` is `index = k` (the
/// 1-based number in its name); the `j`-th interior aggregator node
/// (1-based, in provisioning order) is `index = RELAY_INDEX | j`. Every
/// in-process bring-up — simulator runs, jobs, the benchmark harness —
/// derives its secrets here, which is what keeps them interchangeable.
pub fn dh_secret(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index
}

/// UUID-like token, e.g. `2c15ddc6-d8d3-4a98-8243-d850f27ac052` — the
/// format shown in the paper's Fig. 3 registration log.
fn generate_token(rng: &mut StdRng) -> String {
    let b: Vec<u8> = (0..16).map(|_| rng.random::<u8>()).collect();
    format!(
        "{:02x}{:02x}{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}{:02x}{:02x}{:02x}{:02x}",
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11], b[12], b[13],
        b[14], b[15]
    )
}

/// The startup material for one site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SitePackage {
    /// The site this package belongs to.
    pub site_name: String,
    /// Registration token presented to the server.
    pub token: String,
    /// The site's 0-based position in the roster it validates with, which
    /// fixes its part of a shared validation split
    /// ([`crate::executor::Shard`]).
    pub position: usize,
    /// The size of that roster.
    pub roster_size: usize,
}

/// The server's provisioned state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Project name.
    pub project: String,
    /// `(site, token)` pairs the server will accept.
    pub expected_tokens: Vec<(String, String)>,
}

impl ServerConfig {
    /// Checks a registration attempt, returning `true` when `(site, token)`
    /// matches the provision.
    pub fn verify(&self, site: &str, token: &str) -> bool {
        self.expected_tokens
            .iter()
            .any(|(s, t)| s == site && t == token)
    }
}

/// Output of [`Project::provision`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provisioned {
    /// Server startup config.
    pub server: ServerConfig,
    /// Per-site packages (distributed out-of-band in a real deployment).
    pub sites: Vec<SitePackage>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_site_project() {
        let p = Project::with_n_sites("simulator_server", 8, 1);
        assert_eq!(p.sites.len(), 8);
        assert_eq!(p.sites[0], "site-1");
        assert_eq!(p.sites[7], "site-8");
    }

    #[test]
    fn tokens_unique_and_uuid_shaped() {
        let prov = Project::with_n_sites("p", 8, 2).provision();
        let mut tokens: Vec<&str> = prov.sites.iter().map(|s| s.token.as_str()).collect();
        for t in &tokens {
            assert_eq!(t.len(), 36);
            assert_eq!(t.matches('-').count(), 4);
        }
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), 8, "tokens must be unique");
        for (i, p) in prov.sites.iter().enumerate() {
            assert_eq!((p.position, p.roster_size), (i, 8));
        }
    }

    #[test]
    fn provisioning_deterministic_in_seed() {
        let a = Project::with_n_sites("p", 4, 9).provision();
        let b = Project::with_n_sites("p", 4, 9).provision();
        assert_eq!(a, b);
        let c = Project::with_n_sites("p", 4, 10).provision();
        assert_ne!(a, c);
    }

    #[test]
    fn verify_accepts_only_matching_pairs() {
        let prov = Project::with_n_sites("p", 2, 3).provision();
        let s0 = &prov.sites[0];
        let s1 = &prov.sites[1];
        assert!(prov.server.verify(&s0.site_name, &s0.token));
        assert!(!prov.server.verify(&s0.site_name, &s1.token));
        assert!(!prov.server.verify("site-99", &s0.token));
        assert!(!prov.server.verify(&s0.site_name, "bogus"));
    }

    #[test]
    fn dh_secrets_are_pinned() {
        // Copies of this derivation outside the crate (the benchmark
        // harness) must stay bit-equal; these values are the contract.
        assert_eq!(dh_secret(2023, 1), 0x4862_e8dc_e59a_89f2);
        assert_eq!(dh_secret(2023, 8), 0x4862_e8dc_e59a_89fb);
        assert_eq!(dh_secret(7, 3), 0x5384_5412_7b09_6490);
        assert_eq!(dh_secret(0, 5), 5);
        assert_eq!(dh_secret(7, RELAY_INDEX | 1), 0xd384_5412_7b09_6492);
        assert_eq!(dh_secret(2023, RELAY_INDEX | 2), 0xc862_e8dc_e59a_89f1);
    }

    #[test]
    #[should_panic(expected = "duplicate site names")]
    fn duplicate_sites_panic() {
        Project {
            name: "p".into(),
            sites: vec!["a".into(), "a".into()],
            seed: 0,
        }
        .provision();
    }
}
