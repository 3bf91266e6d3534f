// Bullet' configuration. Defaults reproduce the released configuration described in
// Section 3.3 of the paper; the alternative settings exist to reproduce the design-
// space experiments (Sections 4.3-4.5).

#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

namespace bullet {

enum class RequestStrategy {
  kFirstEncountered,  // request in discovery order
  kRandom,            // uniformly random among known-available
  kRarest,            // least-represented first, deterministic ties
  kRarestRandom,      // least-represented first, random ties (the Bullet' default)
};

struct BulletPrimeConfig {
  RequestStrategy request_strategy = RequestStrategy::kRarestRandom;

  // --- Peering (Section 3.3.1) ---
  bool dynamic_peer_sets = true;  // false: keep initial_* fixed (Figs. 7-9)
  int initial_senders = 10;
  int initial_receivers = 10;
  double trim_stddevs = 1.5;  // disconnect peers more than this many sigma below mean

  // --- Flow control (Section 3.3.3) ---
  bool dynamic_outstanding = true;  // false: keep fixed_outstanding (Figs. 10-12)
  int fixed_outstanding = 5;

  // --- Availability diffs (Section 3.3.4) ---
  int piggyback_limit = 32;  // new block-ids carried per data block

  // --- Source (Section 3.3.5) ---
  // Ablation: pick a random non-busy child per block instead of round-robin. The
  // paper's source iterates round-robin so every block enters the overlay exactly
  // once before any repeats; random selection keeps that property but skews how
  // evenly fresh blocks spread across subtrees.
  bool source_random_push = false;
};

}  // namespace bullet

#endif  // SRC_CORE_CONFIG_H_
