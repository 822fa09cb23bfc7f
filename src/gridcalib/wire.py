"""Metric and label names of the emulated exporter.

These strings are the compatibility surface of the per-process power
exporter being emulated: `/query` selectors and the regression's store
match read the counters by them. The calibration stage reads none of
them; the run hands it the emitter's counter and meter gauge handles.
"""

POWER_COUNTER_METRIC = "kepler_container_platform_joules_total"

NAMESPACE_LABEL = "container_namespace"
MODE_LABEL = "mode"
PROCESS_LABEL = "process"

MODE_DYNAMIC = "dynamic"
MODE_IDLE = "idle"

SYSTEM_NAMESPACE = "system"

METER_GAUGE_METRIC = "socket_meter_watts"
