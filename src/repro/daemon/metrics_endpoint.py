"""Prometheus text exposition for the daemon's ``GET /metrics``.

:func:`render_metrics` is a pure function from a plain snapshot dict to
the Prometheus text format (version 0.0.4) — the daemon gathers the
snapshot under its locks and rendering happens outside them, and the
purity keeps the golden test trivial: fixed snapshot in, exact bytes
out.

The metric families:

* ``repro_jobs_total{state=...}`` — jobs ever seen per lifecycle state
  (a gauge over the job table, so a job moves between labels);
* ``repro_queue_depth{tenant=...}`` / ``repro_queue_depth_total`` —
  currently queued jobs;
* ``repro_tenant_submitted_total{tenant=...}`` — submissions per tenant
  over the manifest's recorded life;
* ``repro_campaigns_finished_total`` / ``repro_campaigns_failed_total``,
  ``repro_steps_total``, ``repro_reconfigurations_total``,
  ``repro_events_total`` — the :class:`~repro.api.events
  .MetricsAggregator` view of everything executed by this process;
* ``repro_cache_hits_total`` / ``repro_cache_misses_total`` /
  ``repro_cache_size`` ``{section=...}`` and
  ``repro_cache_hit_ratio{section=...}`` — the daemon's shared cache
  plane (:meth:`~repro.service.cache.TuningCacheSet.stats`);
* ``repro_uptime_seconds`` — seconds since the daemon started serving.
"""

from __future__ import annotations

__all__ = ["render_metrics"]


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value) -> str:
    """A number in exposition form: integers bare, floats via repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Renderer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value, **labels) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(val)}"'
                for key, val in sorted(labels.items())
            )
            self.lines.append(f"{name}{{{rendered}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_metrics(snapshot: dict) -> str:
    """Render a daemon metrics snapshot as Prometheus text (0.0.4).

    ``snapshot`` keys (all optional; absent ones render as empty/zero):

    - ``jobs``: ``{state: count}`` over the job table;
    - ``queue_depths``: ``{tenant: queued}``;
    - ``tenants_submitted``: ``{tenant: total submissions}``;
    - ``campaigns_finished`` / ``campaigns_failed`` / ``steps`` /
      ``reconfigurations`` / ``events``: process-lifetime counters;
    - ``cache_stats``: ``{section: {hits, misses, size}}`` (the
      ``TuningCacheSet.stats`` shape);
    - ``uptime_seconds``: float.

    Output is deterministic: label sets render sorted.
    """
    out = _Renderer()

    out.family(
        "repro_jobs_total", "gauge",
        "Jobs in the daemon's table, by lifecycle state.",
    )
    jobs = snapshot.get("jobs", {})
    for state in ("queued", "running", "finished", "failed"):
        out.sample("repro_jobs_total", jobs.get(state, 0), state=state)

    out.family(
        "repro_queue_depth", "gauge",
        "Jobs currently queued, per tenant.",
    )
    queue_depths = snapshot.get("queue_depths", {})
    for tenant in sorted(queue_depths):
        out.sample("repro_queue_depth", queue_depths[tenant], tenant=tenant)
    out.family(
        "repro_queue_depth_total", "gauge",
        "Jobs currently queued, all tenants.",
    )
    out.sample("repro_queue_depth_total", sum(queue_depths.values()))

    out.family(
        "repro_tenant_submitted_total", "counter",
        "Plan submissions accepted, per tenant.",
    )
    submitted = snapshot.get("tenants_submitted", {})
    for tenant in sorted(submitted):
        out.sample(
            "repro_tenant_submitted_total", submitted[tenant], tenant=tenant
        )

    for name, key, help_text in (
        ("repro_campaigns_finished_total", "campaigns_finished",
         "Campaigns finished by this daemon process."),
        ("repro_campaigns_failed_total", "campaigns_failed",
         "Campaigns failed in this daemon process."),
        ("repro_steps_total", "steps",
         "Tuning steps executed by this daemon process."),
        ("repro_reconfigurations_total", "reconfigurations",
         "Parallelism reconfigurations applied by this daemon process."),
        ("repro_events_total", "events",
         "Typed events observed by this daemon process."),
    ):
        out.family(name, "counter", help_text)
        out.sample(name, snapshot.get(key, 0))

    cache_stats = snapshot.get("cache_stats", {})
    out.family(
        "repro_cache_hits_total", "counter",
        "Shared cache plane hits, per section.",
    )
    for section in sorted(cache_stats):
        out.sample(
            "repro_cache_hits_total",
            cache_stats[section].get("hits", 0), section=section,
        )
    out.family(
        "repro_cache_misses_total", "counter",
        "Shared cache plane misses, per section.",
    )
    for section in sorted(cache_stats):
        out.sample(
            "repro_cache_misses_total",
            cache_stats[section].get("misses", 0), section=section,
        )
    out.family(
        "repro_cache_size", "gauge",
        "Entries resident in the shared cache plane, per section.",
    )
    for section in sorted(cache_stats):
        out.sample(
            "repro_cache_size",
            cache_stats[section].get("size", 0), section=section,
        )
    out.family(
        "repro_cache_hit_ratio", "gauge",
        "Hits over lookups in the shared cache plane, per section.",
    )
    for section in sorted(cache_stats):
        hits = cache_stats[section].get("hits", 0)
        misses = cache_stats[section].get("misses", 0)
        lookups = hits + misses
        out.sample(
            "repro_cache_hit_ratio",
            (hits / lookups) if lookups else 0.0, section=section,
        )

    out.family(
        "repro_uptime_seconds", "gauge",
        "Seconds since this daemon process started serving.",
    )
    out.sample("repro_uptime_seconds", snapshot.get("uptime_seconds", 0.0))

    return out.text()
