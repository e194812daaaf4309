include Dpv_obs.Json
