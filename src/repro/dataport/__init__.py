"""The dataport: network metadata analysis and system status monitoring
(§2.3), reimplemented as deterministic dataflow.

The paper builds this with Akka actors — one *digital twin* per
physical device tracking its state in real time. The twin **logic**
(battery-adaptive expected-packet schedules, missed-cycle counting,
alarm raising, hierarchical sensor-vs-gateway failure disambiguation)
is what the evaluation exercises, so we reproduce that logic as one
state timeline over the uplink stream: every sensor and gateway twin at
every sweep instant, from one ``applyInPandas`` walk per city
(:func:`repro.dataport.twins.timeline`). Alarms are its status
transitions (:mod:`repro.dataport.alarms`) and the hierarchy's
classification at an instant is a filter of it
(:mod:`repro.dataport.hierarchy`). An external
watchdog (AppBeat in the paper) checks the dataport's own heartbeat
(:mod:`repro.dataport.watchdog`).
"""
