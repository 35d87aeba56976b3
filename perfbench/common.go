package main

import (
	"sigstream/internal/client"
	"sigstream/internal/cluster"
	"sigstream/internal/stream"
)

// entries converts the service's JSON estimates to tracker entries.
func entries(es []client.Entry) []stream.Entry {
	out := make([]stream.Entry, len(es))
	for i, e := range es {
		out[i] = stream.Entry{Item: e.Item, Frequency: e.Frequency,
			Persistency: e.Persistency, Significance: e.Significance}
	}
	return out
}

// viewEntries converts the coordinator's view to tracker entries.
func viewEntries(es []cluster.ViewEntry) []stream.Entry {
	out := make([]stream.Entry, len(es))
	for i, e := range es {
		out[i] = stream.Entry{Item: e.Item, Frequency: e.Frequency,
			Persistency: e.Persistency, Significance: e.Significance}
	}
	return out
}
