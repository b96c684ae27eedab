(** Content-addressed on-disk result cache for {!Run_spec} executions.

    Keys are {!Run_spec.cache_key} digests (spec encoding + compiled
    program bytes), so a warm cache survives exactly as long as both the
    experiment description and the generated code are unchanged.  Blobs
    are versioned marshalled records carrying an MD5 payload checksum:
    an absent or version/compiler-stale blob reads as a miss; a torn,
    rotten, or checksum-failing blob counts as {e corrupt} and is
    quarantined to [dir/quarantine/] — never an error, never silently
    re-read.  Writes are temp-file + rename and directory creation
    tolerates races, so concurrent workers and concurrent processes are
    safe; {!reap_tmp} cleans up after killed writers. *)

type t

val current_version : int
(** Bump when the marshalled payload layout changes. *)

val default_dir : string
(** ["_xloops_cache"]. *)

val quarantine_subdir : string
(** ["quarantine"], under the cache [dir]. *)

val create :
  ?version:int -> ?dir:string -> ?chaos:Chaos.t ->
  ?index:Cache_index.t -> ?limit_bytes:int -> unit -> t
(** A cache handle.  Nothing is touched on disk until the first store;
    [version] defaults to {!current_version} (override only to test
    invalidation).  [chaos] injects read errors and post-store blob
    corruption for integrity testing.

    [index] attaches a shared mmap'd {!Cache_index} over [dir]: lookups
    consult the index first (falling back to — and adopting — on-disk
    blobs the index does not know), stores register their blob, entries
    whose blobs turn out absent or corrupt are healed out of the index,
    and the index's clock sweep bounds the store, deleting victim blobs
    through this handle.  [limit_bytes] bounds a {e private} (index-less)
    cache instead, enforced by {!reap_over_limit} at startup. *)

val find_run : t -> key:Digest_hex.t -> Run_spec.run_data option
val store_run : t -> key:Digest_hex.t -> Run_spec.run_data -> unit

val find_or_execute : ?cache:t -> Run_spec.t -> Run_spec.run_data
(** Cache-or-simulate: with a [cache], look the spec up under its
    {!Run_spec.cache_key} and mark a hit [stats.cache_hits = 1];
    otherwise {!Run_spec.execute} it, store the result (when there is a
    cache) and mark it [stats.cache_misses = 1].  The stored blob
    carries neither marker.  Raises like {!Run_spec.execute}. *)

val find_meta : t -> key:Digest_hex.t -> int array option
(** Kernel-metadata blobs (dynamic instruction counts, body statistics),
    keyed by {!Run_spec.kernel_digest}. *)

val store_meta : t -> key:Digest_hex.t -> int array -> unit

val reap_tmp : t -> int
(** Remove orphaned [*.tmp.*] files a killed writer left under this
    version's tree; returns the count.  Run at startup. *)

val reap_over_limit : t -> int
(** For a private cache with [limit_bytes]: delete least-recently-written
    blobs until the version tree fits the limit; returns how many were
    removed.  Recency is blob mtime — without a shared index there is no
    access record.  Returns [0] with no limit, or when a shared [index]
    owns eviction.  Run at startup, like {!reap_tmp}. *)

val quarantined : t -> int
(** Files currently in the quarantine directory. *)

val hits : t -> int
val misses : t -> int
(** Absent or version-stale lookups. *)

val corrupt : t -> int
(** Integrity failures detected (and quarantined) by this handle. *)

val stores : t -> int
(** Lookup/store counters for this handle (thread-safe). *)

val evictions : t -> int
(** Blobs this handle deleted for space — via the shared index's clock
    sweep or {!reap_over_limit}. *)

val index : t -> Cache_index.t option
(** The shared index attached at {!create}, if any. *)

val pp_counters : Format.formatter -> t -> unit
