(** Histogram quantile estimation.

    Where samples would be unbounded — the metrics registry and the
    service's per-tenant latency arrays — latency lives as bucket
    counts, and this module estimates p50/p95/p99 from them. Raw sample
    lists use {!Pld_util.Stats.percentile} instead. *)

val of_buckets : (float * int) list -> float -> float
(** [of_buckets buckets q] estimates the [q]-quantile from cumulative
    bucket counts, where [buckets] is [(upper_edge, count)] per bucket
    in ascending edge order (the shape of
    {!Telemetry.bucket_counts}), the final edge may be
    [Float.infinity], and [count] is per-bucket (not cumulative).

    The estimate interpolates linearly inside the bucket holding the
    target rank, taking the previous edge (or [0.0] for the first
    bucket) as the lower bound — the standard Prometheus
    [histogram_quantile] construction. A rank landing in the [+inf]
    bucket returns the last finite edge; an empty histogram returns
    [0.0]. *)

val buckets_of_counts : edges:float array -> counts:int array -> (float * int) list
(** Pair a fixed edge array with its per-bucket count array (length
    [edges + 1], last slot the [+inf] bucket) into the [(edge, count)]
    shape {!of_buckets} consumes. *)
