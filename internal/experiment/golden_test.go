package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenFigureTables pins the SHA-256 of every data figure's rendered
// table under the Quick configuration. Any change to placement,
// coverage accounting or failure modeling that moves a single printed
// digit changes a hash; a pure refactor of the engines leaves them all
// fixed.
var goldenFigureTables = map[string]string{
	"fig7":  "8e417de803cc3c482bc0bde67d6d9d2f2d91839ec75e3a178050c5bb2d0335ef",
	"fig8":  "dbc470df6c10bf37d6db673003d8fa37543007c556d032402bb42e087d065bf6",
	"fig9":  "a2abb5d9302ff7d3734963acce2a5929bd5f702a9913f63fcf2cf5ba11a8b0ba",
	"fig10": "ef4299713a95c768d80ce82684ae625b344582fa5fe97c9db546beb45f29ed3a",
	"fig11": "9fa74155e2f9322bb72852d219165d95cf17aa71679349cb2e66295390087923",
	"fig12": "891db61a3db214c3d89af718efbc93c4a1302dcc90d06ee6c916cd6fc9d9c971",
	"fig13": "3949adbd2a419ceca3118cdc0ad3f0acd83de4da9031c4d8c7ae833e70a10de4",
	"fig14": "f888a97fc9eee7cb9f04016e3e1970b1a6f2414ee70ef7f850c5566b20559744",
}

func TestGoldenFigureTables(t *testing.T) {
	cfg := Quick()
	for _, id := range AllIDs() {
		fig, err := ByID(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(fig.Table()))
		if got := hex.EncodeToString(sum[:]); got != goldenFigureTables[id] {
			t.Errorf("%s table hash = %s, want %s\n%s", id, got, goldenFigureTables[id], fig.Table())
		}
	}
}
