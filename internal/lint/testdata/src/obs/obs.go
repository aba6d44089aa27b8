package obs

import "fmt"

// Encode mirrors Snapshot.Encode / TraceSnapshot.Encode: dropping its
// error ships an empty /metricz body and the scrape silently reads as "no
// traffic".
func Encode() ([]byte, error) { return nil, nil }

// DecodeSnapshot mirrors the poller-side decoder.
func DecodeSnapshot(b []byte) (int, error) { return len(b), nil }

// Serve stands for an obs call whose only result is an error, the form
// go and defer hide a dropped one behind.
func Serve() error { return nil }

func bad() {
	Encode()            // want "result of obs.Encode includes an error that is discarded"
	DecodeSnapshot(nil) // want "result of obs.DecodeSnapshot includes an error that is discarded"
	go Serve()          // want "result of obs.Serve includes an error that is discarded"
	defer Serve()       // want "result of obs.Serve includes an error that is discarded"
}

func good() error {
	_, _ = Encode() // explicit discard stays visible in review
	if _, err := DecodeSnapshot(nil); err != nil {
		return err
	}
	fmt.Println("fmt is not a watched package")
	return Serve()
}
